package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/queueing"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Route labels of the serve mix, as the per-layer metrics name them.
const (
	routePctGet   = "percentiles_get"
	routePctBatch = "percentiles_batch"
	routeEp       = "epmetrics"
	routeFrontier = "frontier"
)

var routes = []string{routePctGet, routePctBatch, routeEp, routeFrontier}

// The fixed grids serve-hot draws from and set-up warms: every hot
// evaluation is then a percentile-cache hit.
var (
	uGrid       = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	dGrid       = []float64{0.001, 0.01, 0.1, 1}
	scvGrid     = []float64{0.5, 1, 2, 4}
	serversGrid = []int{2, 4, 8, 16}
	pLists      = [][]float64{{50, 95, 99}, {99}, {50, 90, 99, 99.9}}
)

// mixRef is one (workload, mix) pair the model-mode items use.
type mixRef struct{ wl, mix string }

// serveMixes draws the run's twelve (workload, mix) pairs: two mixes
// per paper workload, 1-32 A9 and 0-12 K10 nodes.
func serveMixes(seed uint64) []mixRef {
	rng := rand.New(rand.NewPCG(seed, streamServeMixes))
	names := workload.PaperNames()
	out := make([]mixRef, 12)
	for i := range out {
		mix := fmt.Sprintf("%dxA9", 1+rng.IntN(32))
		if k := rng.IntN(13); k > 0 {
			mix += fmt.Sprintf(",%dxK10", k)
		}
		out[i] = mixRef{wl: names[i%len(names)], mix: mix}
	}
	return out
}

// pctItem is one percentile evaluation: a (workload, mix) in model mode
// or a raw service time d, at utilization u, under one kernel.
type pctItem struct {
	wl, mix string
	d, u    float64
	ps      []float64
	spec    queueing.Spec
}

// epItem is one EP-metrics evaluation, optionally against a reference.
type epItem struct{ wl, mix, ref string }

// frItem is one small frontier sweep: node counts only, no DVFS.
type frItem struct {
	wl            string
	maxA9, maxK10 int
}

// request is one generated request with what the benchmark needs to
// count, replay and check it.
type request struct {
	route  string
	method string
	path   string
	body   []byte
	evals  int
	pcts   []pctItem // percentiles GET (one) or batch items
	ep     *epItem
	fr     *frItem
}

// serveGen draws one connection's request stream. Shape choices (the
// route, batch size, kernel kind, model or raw mode) come from one
// stream and values (utilization, scv, servers, d, mix) from another,
// so a twin generator with the same shape seed and another value seed
// draws requests of identical shape over fresh values.
type serveGen struct {
	hot           bool
	mixes         []mixRef
	shape, values *rand.Rand
	deck          []slot // the rest of the current block of the mix
}

// slot is one request of the mix: its route and, for a batch, its size.
type slot struct {
	route string
	batch int
}

// deckSize is one block of the serve mix. Each block holds the weights
// exactly: 71% scalar percentiles GETs, 24% epmetrics GETs, 3% small
// frontier sweeps and 2% percentiles batches, whose sizes run evenly
// from 8 to 64 items (36 on average). A connection's shape stream
// shuffles a fresh deck for every block, so the seed decides the order
// of the requests and their values, not how many of each a run issues.
const deckSize = 1000

// The batch share: batches carry about as many evaluations (720 a deck)
// as the scalar percentiles GETs (710).
const deckBatches = 20

func newDeck() []slot {
	deck := make([]slot, 0, deckSize)
	add := func(route string, n int) {
		for i := 0; i < n; i++ {
			deck = append(deck, slot{route: route})
		}
	}
	add(routePctGet, 710)
	add(routeEp, 240)
	add(routeFrontier, 30)
	for i := 0; i < deckBatches; i++ {
		deck = append(deck, slot{route: routePctBatch, batch: 8 + (56*i+(deckBatches-1)/2)/(deckBatches-1)})
	}
	return deck
}

func newServeGen(seed uint64, conn int, hot bool, valueStream uint64, mixes []mixRef) *serveGen {
	return &serveGen{
		hot:    hot,
		mixes:  mixes,
		shape:  rand.New(rand.NewPCG(seed, streamServeShape+uint64(conn))),
		values: rand.New(rand.NewPCG(seed, valueStream+uint64(conn))),
	}
}

// next draws the next request of the mix (see deckSize). No recorded
// epserve traffic backs the weights (README.md, "The serve mix"):
// scalar percentiles and epmetrics GETs come 3:1 as in
// loadgen.DefaultPaths, batches carry as many evaluations as the scalar
// GETs, and frontier sweeps are a few percent.
func (g *serveGen) next() *request {
	if len(g.deck) == 0 {
		g.deck = newDeck()
		g.shape.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	sl := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	switch sl.route {
	case routePctGet:
		it := g.pctItem()
		return &request{route: routePctGet, method: "GET", path: pctPath(it), evals: 1, pcts: []pctItem{it}}
	case routeEp:
		it := g.epItem()
		return &request{route: routeEp, method: "GET", path: epPath(it), evals: 1, ep: &it}
	case routePctBatch:
		n := sl.batch
		items := make([]pctItem, n)
		for i := range items {
			items[i] = g.pctItem()
		}
		return &request{route: routePctBatch, method: "POST", path: "/v1/percentiles",
			body: pctBatchBody(items), evals: n, pcts: items}
	default:
		it := frItem{
			wl:    workload.PaperNames()[g.values.IntN(6)],
			maxA9: 2 + g.values.IntN(5), maxK10: 1 + g.values.IntN(3),
		}
		return &request{route: routeFrontier, method: "GET", path: frPath(it), evals: 1, fr: &it}
	}
}

// pctItem draws one evaluation, a third in model mode and two thirds
// with a raw d, as in loadgen.DefaultPaths. On serve-hot every value
// comes from the warmed grids; on serve-cold utilization, scv, servers
// and d are drawn fresh from continuous (or wide integer) ranges over
// the stable region.
func (g *serveGen) pctItem() pctItem {
	s, v := g.shape, g.values
	var it pctItem
	if s.IntN(3) == 0 {
		m := g.mixes[v.IntN(len(g.mixes))]
		it.wl, it.mix = m.wl, m.mix
	} else if g.hot {
		it.d = dGrid[v.IntN(len(dGrid))]
	} else {
		it.d = math.Pow(10, -3+3*v.Float64())
	}
	it.ps = pLists[s.IntN(len(pLists))]
	switch s.IntN(3) {
	case 1:
		it.spec.Kind = queueing.KindMG1
		if g.hot {
			it.spec.SCV = scvGrid[v.IntN(len(scvGrid))]
		} else {
			it.spec.SCV = 0.1 + 7.9*v.Float64()
		}
	case 2:
		it.spec.Kind = queueing.KindMMK
		if g.hot {
			it.spec.Servers = serversGrid[v.IntN(len(serversGrid))]
		} else {
			it.spec.Servers = 1 + v.IntN(64)
		}
	}
	if g.hot {
		it.u = uGrid[v.IntN(len(uGrid))]
	} else {
		it.u = 0.05 + 0.9*v.Float64()
	}
	return it
}

func (g *serveGen) epItem() epItem {
	m := g.mixes[g.values.IntN(len(g.mixes))]
	it := epItem{wl: m.wl, mix: m.mix}
	if g.shape.IntN(2) == 0 {
		it.ref = g.mixes[g.values.IntN(len(g.mixes))].mix
	}
	return it
}

func fmtF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func joinPs(ps []float64) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmtF(p)
	}
	return strings.Join(parts, ",")
}

func pctPath(it pctItem) string {
	q := url.Values{}
	if it.mix != "" {
		q.Set("workload", it.wl)
		q.Set("mix", it.mix)
	} else {
		q.Set("d", fmtF(it.d))
	}
	q.Set("u", fmtF(it.u))
	q.Set("p", joinPs(it.ps))
	switch it.spec.Kind {
	case queueing.KindMG1:
		q.Set("kernel", "mg1")
		q.Set("scv", fmtF(it.spec.SCV))
	case queueing.KindMMK:
		q.Set("kernel", "mmk")
		q.Set("servers", strconv.Itoa(it.spec.Servers))
	}
	return "/v1/percentiles?" + q.Encode()
}

func batchItem(it pctItem) serve.PercentilesBatchItem {
	bi := serve.PercentilesBatchItem{Workload: it.wl, Mix: it.mix, D: it.d, U: []float64{it.u}, P: it.ps}
	if !it.spec.IsDefault() {
		bi.Kernel, bi.SCV, bi.Servers = it.spec.Kind.String(), it.spec.SCV, it.spec.Servers
	}
	return bi
}

func pctBatchBody(items []pctItem) []byte {
	req := serve.PercentilesBatchRequest{Items: make([]serve.PercentilesBatchItem, len(items))}
	for i, it := range items {
		req.Items[i] = batchItem(it)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain value types always marshal
	}
	return body
}

func epPath(it epItem) string {
	q := url.Values{}
	q.Set("workload", it.wl)
	q.Set("mix", it.mix)
	if it.ref != "" {
		q.Set("ref", it.ref)
	}
	return "/v1/epmetrics?" + q.Encode()
}

func frPath(it frItem) string {
	return fmt.Sprintf("/v1/frontier?workload=%s&max_a9=%d&max_k10=%d", url.QueryEscape(it.wl), it.maxA9, it.maxK10)
}

// warmupRequests covers every combination serve-hot can draw — each
// (mix or d, u, kernel, percentile list) percentile evaluation, the
// model analysis of every (workload, mix) pair, and each workload's
// frontier table — so that set-up leaves nothing cold for serve-hot.
// serve-cold runs the same set-up.
func warmupRequests(mixes []mixRef) []*request {
	specs := []queueing.Spec{{}}
	for _, scv := range scvGrid {
		specs = append(specs, queueing.Spec{Kind: queueing.KindMG1, SCV: scv})
	}
	for _, k := range serversGrid {
		specs = append(specs, queueing.Spec{Kind: queueing.KindMMK, Servers: k})
	}
	var items []pctItem
	modes := make([]pctItem, 0, len(mixes)+len(dGrid))
	for _, m := range mixes {
		modes = append(modes, pctItem{wl: m.wl, mix: m.mix})
	}
	for _, d := range dGrid {
		modes = append(modes, pctItem{d: d})
	}
	for _, mode := range modes {
		for _, u := range uGrid {
			for _, spec := range specs {
				for _, ps := range pLists {
					it := mode
					it.u, it.spec, it.ps = u, spec, ps
					items = append(items, it)
				}
			}
		}
	}
	var out []*request
	const maxItems = 1024 // the server's per-batch cap
	for len(items) > 0 {
		n := min(maxItems, len(items))
		out = append(out, &request{route: routePctBatch, method: "POST", path: "/v1/percentiles",
			body: pctBatchBody(items[:n]), evals: n, pcts: items[:n]})
		items = items[n:]
	}
	var ep serve.EPMetricsBatchRequest
	for _, name := range workload.PaperNames() {
		for _, m := range mixes {
			ep.Items = append(ep.Items, serve.EPMetricsBatchItem{Workload: name, Mix: m.mix})
		}
	}
	body, err := json.Marshal(ep)
	if err != nil {
		panic(err)
	}
	out = append(out, &request{route: routeEp, method: "POST", path: "/v1/epmetrics", body: body, evals: len(ep.Items)})
	for _, name := range workload.PaperNames() {
		it := frItem{wl: name, maxA9: 1, maxK10: 1}
		out = append(out, &request{route: routeFrontier, method: "GET", path: frPath(it), evals: 1, fr: &it})
	}
	return out
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/telemetry"
)

// setupReps is how many times a serve run starts epserve and warms it;
// setup_s is the median, and the last server carries the load.
const setupReps = 5

// Each connection's targets are generated before the clock starts and
// handed to one loadgen.Run, which cycles through them. On serve-cold
// the stream must not wrap — a repeated target would turn misses into
// hits — so it holds enough targets for coldConnRate requests per second
// over the loop, more than three times what a connection issues today
// (about 600), and a wrap is reported. On serve-hot every evaluation is
// a cache hit either way, so the stream is a fixed cycle of hotCycle
// targets (four blocks of the mix, see deckSize), which keeps the
// client's heap, and its garbage collector's share of the two cores,
// small.
const (
	coldConnRate = 2000
	hotCycle     = 4 * deckSize
)

// rssAfterRequests is how many closed-loop requests epserve has
// answered when peak_rss_mb is read. epserve keeps up to 2^20
// telemetry spans in memory, so its resident set grows with the
// requests it has served; reading it after a fixed number of them keeps
// a throughput gain from reading as a memory regression.
const rssAfterRequests = 8192

// checksPerConn is how many of each connection's issued requests are
// re-sent after the load and compared with direct library calls.
const checksPerConn = 24

// child is one epserve process started by the benchmark.
type child struct {
	cmd  *exec.Cmd
	base string
}

var (
	childrenMu sync.Mutex
	children   = map[*child]bool{}
)

// startServer starts epserve with its default flags on an ephemeral
// loopback port and waits until /v1/readyz answers.
func startServer(e *env) (*child, error) {
	addrFile := filepath.Join(e.outDir, fmt.Sprintf("epserve-%d.addr", os.Getpid()))
	os.Remove(addrFile)
	cmd := exec.Command(e.epserve, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	// The access log (one line per request) goes to /dev/null: epserve
	// still formats and writes it, as it does in production.
	cmd.Stdout, cmd.Stderr = nil, nil
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting epserve: %w", err)
	}
	c := &child{cmd: cmd}
	childrenMu.Lock()
	children[c] = true
	childrenMu.Unlock()

	deadline := time.Now().Add(30 * time.Second)
	for c.base == "" {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			c.base = "http://" + string(addr)
			break
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, errors.New("epserve did not report its address within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	os.Remove(addrFile)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(c.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, errors.New("epserve did not become ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains epserve with SIGTERM, kills it if it has not exited
// within 10s, and waits for it.
func (c *child) stop() {
	childrenMu.Lock()
	delete(children, c)
	childrenMu.Unlock()
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
}

// stopAllChildren kills every epserve still running; the signal
// handler and fatal-error paths call it.
func stopAllChildren() {
	childrenMu.Lock()
	list := make([]*child, 0, len(children))
	for c := range children {
		list = append(list, c)
	}
	childrenMu.Unlock()
	for _, c := range list {
		c.stop()
	}
}

// send issues one request and returns its status and body.
func send(client *http.Client, base string, r *request) (int, []byte, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// warm sends the warm-up requests; any non-200 is a set-up failure.
func warm(client *http.Client, base string, reqs []*request) error {
	for _, r := range reqs {
		status, body, err := send(client, base, r)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.route, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %.200s", r.route, status, body)
		}
	}
	return nil
}

// recorder is one connection's http.RoundTripper: it times each
// request from send to the close of its body, and counts the
// evaluations 2xx responses answered. The URL fragment, which never
// leaves the client, carries the target's index in the connection's target list.
type recorder struct {
	base    http.RoundTripper
	reqs    []*request
	origin  time.Time
	samples []sample
	evals   int64
	tr      *telemetry.Tracer
	tid     int
	rss     *rssProbe // nil: do not read epserve's memory
}

// rssProbe reads epserve's VmHWM once the connections together have
// completed rssAfterRequests requests.
type rssProbe struct {
	pid  int
	done atomic.Int64
	mb   float64
	err  error
}

// count records one completed request; the one that reaches
// rssAfterRequests reads the peak RSS, so no two goroutines write mb.
func (p *rssProbe) count() {
	if p != nil && p.done.Add(1) == rssAfterRequests {
		p.mb, p.err = vmHWM(p.pid)
	}
}

// sample is one completed request: when it completed (since the loop
// started), its latency, and the evaluations a 2xx answer carried.
type sample struct {
	done, latency time.Duration
	evals         int
}

type timedBody struct {
	io.ReadCloser
	rec    *recorder
	r      *request
	status int
	errs   int
	start  time.Time
	span   *telemetry.Span
	closed bool
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		now := time.Now()
		smp := sample{done: now.Sub(b.rec.origin), latency: now.Sub(b.start)}
		if b.status >= 200 && b.status < 300 {
			smp.evals = b.r.evals - b.errs
			b.rec.evals += int64(smp.evals)
		}
		b.rec.samples = append(b.rec.samples, smp)
		b.rec.rss.count()
		b.span.End()
	}
	return err
}

func (rec *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	idx, err := strconv.Atoi(req.URL.Fragment)
	if err != nil || idx < 0 || idx >= len(rec.reqs) {
		return nil, fmt.Errorf("perfbench: request without a target tag: %q", req.URL.Fragment)
	}
	s, _ := startSpan(rec.tr, rec.tid, "http.Client.Do", 0, newOp(rec.tr))
	start := time.Now()
	resp, err := rec.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	errs, _ := strconv.Atoi(resp.Header.Get("X-Batch-Errors"))
	resp.Body = &timedBody{ReadCloser: resp.Body, rec: rec, r: rec.reqs[idx],
		status: resp.StatusCode, errs: errs, start: start, span: s}
	return resp, nil
}

// connStream is one connection's seeded request stream and what it
// issued.
type connStream struct {
	gen    *serveGen
	queue  []*request // generated, not yet issued
	issued []*request
	rec    *recorder
}

func (cs *connStream) fill(n int) {
	for len(cs.queue) < n {
		cs.queue = append(cs.queue, cs.gen.next())
	}
}

// loadStats is one closed-loop run over all connections.
type loadStats struct {
	elapsed  time.Duration
	requests int
	evals    int64
	samples  []sample
	failed   int
}

// add merges another loop's counts into st.
func (st *loadStats) add(o loadStats) {
	st.elapsed += o.elapsed
	st.requests += o.requests
	st.evals += o.evals
	st.samples = append(st.samples, o.samples...)
	st.failed += o.failed
}

// Windows of a closed loop: each window holds at least
// minWindowSamples requests, so that its p99 has ten samples beyond it,
// and a loop has at most maxWindows.
const (
	minWindowSamples = 1000
	maxWindows       = 30
)

// windowed splits every closed loop into equal time windows and
// returns the median over all windows of the evaluations answered per
// second, the p50 and the p99 latency in ms. A burst of interference
// from outside the benchmark then moves a few windows, not the result.
func windowed(loops []loadStats) (evalsPerS, p50, p99 float64) {
	var evals, p50s, p99s []float64
	for _, st := range loops {
		nw := max(1, min(maxWindows, len(st.samples)/minWindowSamples))
		w := st.elapsed / time.Duration(nw)
		ev := make([]float64, nw)
		lat := make([][]float64, nw)
		for _, smp := range st.samples {
			k := min(int(smp.done/w), nw-1)
			ev[k] += float64(smp.evals)
			lat[k] = append(lat[k], smp.latency.Seconds()*1e3)
		}
		for k := range ev {
			evals = append(evals, ev[k]/w.Seconds())
			p50s = append(p50s, quantile(lat[k], 0.50))
			p99s = append(p99s, quantile(lat[k], 0.99))
		}
	}
	return median(evals), median(p50s), median(p99s)
}

// closedLoop drives every connection's stream against base for dur,
// one loadgen.Run with one worker per connection. The request loadgen
// cuts off at the end is skipped, not re-sent, by the next loop.
func closedLoop(base string, transport http.RoundTripper, conns []*connStream, dur time.Duration, tr *telemetry.Tracer, rss *rssProbe, rep *report) loadStats {
	targets := make([][]loadgen.Target, len(conns))
	for i, cs := range conns {
		if cs.gen.hot {
			cs.fill(hotCycle)
		} else {
			cs.fill(int(dur.Seconds()*coldConnRate) + 1)
		}
		cs.rec = &recorder{base: transport, reqs: cs.queue, tr: tr, tid: i, rss: rss}
		targets[i] = make([]loadgen.Target, len(cs.queue))
		for j, r := range cs.queue {
			targets[i][j] = loadgen.Target{Method: r.method, Path: r.path + "#" + strconv.Itoa(j), Body: r.body}
		}
	}
	results := make([]*loadgen.Result, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i, cs := range conns {
		cs.rec.origin = start
		wg.Add(1)
		go func(i int, cs *connStream) {
			defer wg.Done()
			results[i], errs[i] = loadgen.Run(context.Background(), loadgen.Config{
				BaseURL: base, Targets: targets[i], Concurrency: 1, Duration: dur,
				Client: &http.Client{Transport: cs.rec, Timeout: 30 * time.Second}})
		}(i, cs)
	}
	wg.Wait()
	st := loadStats{elapsed: time.Since(start)}
	for i, cs := range conns {
		res := results[i]
		if errs[i] != nil {
			rep.note(fmt.Sprintf("loadgen: %v", errs[i]))
			st.failed++
			continue
		}
		n := res.Requests
		if n >= len(cs.queue) {
			if !cs.gen.hot {
				rep.note(fmt.Sprintf("connection %d issued %d requests from a stream of %d: targets repeated", i, n, len(cs.queue)))
			}
			n = len(cs.queue) - 1
		}
		cs.issued = append(cs.issued, cs.queue[:n]...)
		cs.queue = cs.queue[n+1:]
		st.requests += res.Requests
		st.evals += cs.rec.evals
		st.failed += res.TransportErrors + res.Non2xx + res.BatchItemErrors
		st.samples = append(st.samples, cs.rec.samples...)
	}
	return st
}

func newConns(e *env, seed uint64, hot bool, valueStream uint64, mixes []mixRef) []*connStream {
	conns := make([]*connStream, e.nproc)
	for i := range conns {
		conns[i] = &connStream{gen: newServeGen(seed, i, hot, valueStream, mixes)}
	}
	return conns
}

// servePlane drives a fresh epserve child in closed loop. Set-up
// starts and warms the server reps times (setup_s is the median) and
// keeps the last one. Traced, every slice is split between an untraced
// and a traced closed loop (their rate difference is the tracing
// overhead), and finish adds an in-process replay of the same request
// stream through Server.Handler().ServeHTTP and direct queueing and
// energyprop calls on a twin stream, extra each.
type servePlane struct {
	e         *env
	seed      uint64
	hot       bool
	tr        *telemetry.Tracer
	extra     time.Duration
	transport *http.Transport
	client    *http.Client
	srv       *child
	mixes     []mixRef
	warmReqs  []*request
	conns     []*connStream
	before    *serve.DebugStatsResponse
	rss       *rssProbe // nil when traced
	loops     []loadStats
	untraced  loadStats
	traced    loadStats
}

func newServePlane(e *env, seed uint64, hot bool, reps int, extra time.Duration, tr *telemetry.Tracer, rep *report) (*servePlane, error) {
	p := &servePlane{e: e, seed: seed, hot: hot, tr: tr, extra: extra, mixes: serveMixes(seed)}
	p.warmReqs = warmupRequests(p.mixes)
	p.transport = &http.Transport{MaxIdleConnsPerHost: e.nproc + 2, DisableCompression: true}
	p.client = &http.Client{Transport: p.transport, Timeout: 60 * time.Second}

	var setups []float64
	for i := 0; i < reps; i++ {
		if p.srv != nil {
			p.transport.CloseIdleConnections()
			p.srv.stop()
			p.srv = nil
		}
		t0 := time.Now()
		srv, err := startServer(e)
		if err != nil {
			return p, err
		}
		p.srv = srv
		if err := warm(p.client, srv.base, p.warmReqs); err != nil {
			return p, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.setups[planeServe] = median(setups)

	p.conns = newConns(e, seed, hot, streamServeValues, p.mixes)
	var err error
	if p.before, err = loadgen.ServerStats(context.Background(), p.client, p.srv.base); err != nil {
		return p, err
	}
	if tr == nil {
		p.rss = &rssProbe{pid: p.srv.cmd.Process.Pid}
	}
	return p, nil
}

func (p *servePlane) slice(d time.Duration, rep *report) error {
	if p.tr == nil {
		st := closedLoop(p.srv.base, p.transport, p.conns, d, nil, p.rss, rep)
		p.loops = append(p.loops, st)
		p.untraced.add(st)
		return nil
	}
	st := closedLoop(p.srv.base, p.transport, p.conns, d/2, nil, nil, rep)
	p.loops = append(p.loops, st)
	p.untraced.add(st)
	p.traced.add(closedLoop(p.srv.base, p.transport, p.conns, d/2, p.tr, nil, rep))
	return nil
}

// finish reads epserve's counters and memory, checks a seeded sample of
// the answers and reports the plane's metrics.
func (p *servePlane) finish(rep *report) error {
	e := p.e
	if p.rss != nil {
		if p.rss.done.Load() < rssAfterRequests {
			rep.note(fmt.Sprintf("peak RSS read at the end of the loops, after %d requests", p.rss.done.Load()))
			p.rss.mb, p.rss.err = vmHWM(p.rss.pid)
		}
		if p.rss.err != nil {
			return p.rss.err
		}
		rep.rss[planeServe] = p.rss.mb
	}
	after, err := loadgen.ServerStats(context.Background(), p.client, p.srv.base)
	if err != nil {
		return err
	}

	untraced, traced := p.untraced, p.traced
	rep.attempted += int64(untraced.requests + traced.requests)
	failed := untraced.failed + traced.failed
	rep.failed += int64(failed)
	if failed > 0 {
		rep.note(fmt.Sprintf("serve: %d failed requests", failed))
	}
	rep.e2e["evals_per_s"], rep.e2e["latency_p50_ms"], rep.e2e["latency_p99_ms"] = windowed(p.loops)
	rep.latencySamples = len(untraced.samples)

	checkServe(e, p.client, p.srv.base, p.seed, p.conns, rep)

	if p.tr == nil {
		return nil
	}
	rep.overhead[planeServe] = overheadPct(float64(untraced.evals)/untraced.elapsed.Seconds(),
		float64(traced.evals)/traced.elapsed.Seconds())
	before := p.before
	d := func(f func(s *serve.DebugStatsResponse) uint64) float64 { return float64(f(after) - f(before)) }
	hits := d(func(s *serve.DebugStatsResponse) uint64 { return s.Counters["queueing.percentile_cache_hits"] })
	misses := d(func(s *serve.DebugStatsResponse) uint64 { return s.Counters["queueing.percentile_cache_misses"] })
	rep.layer["serve.queue_waits"] = d(func(s *serve.DebugStatsResponse) uint64 { return s.Admission.QueueWaits })
	rep.layer["serve.shed"] = d(func(s *serve.DebugStatsResponse) uint64 { return s.Admission.Shed })
	rep.layer["serve.coalesced_ratio"] = d(func(s *serve.DebugStatsResponse) uint64 { return s.Admission.Coalesced }) /
		float64(untraced.evals+traced.evals)
	rep.layer["queueing.cache_misses"] = misses
	if hits+misses > 0 {
		rep.layer["queueing.cache_hit_ratio"] = hits / (hits + misses)
	}
	var clientUs []float64
	for _, smp := range append(untraced.samples, traced.samples...) {
		clientUs = append(clientUs, micros(smp.latency))
	}
	clientP50 := median(clientUs)

	handlerP50, getP50, err := replayInProcess(e, p.warmReqs, p.conns, p.extra, p.tr, rep)
	if err != nil {
		return err
	}
	rep.layer["net.roundtrip_self_us"] = clientP50 - handlerP50
	twins := newConns(e, p.seed, p.hot, streamServeTwin, p.mixes)
	directCompute(e, twins, p.extra, getP50, p.tr, rep)
	return nil
}

func (p *servePlane) close() {
	p.transport.CloseIdleConnections()
	if p.srv != nil {
		p.srv.stop()
	}
}

// overheadPct is how much slower the traced rate is than the untraced
// one, in percent.
func overheadPct(untraced, traced float64) float64 {
	if traced <= 0 {
		return 0
	}
	return (untraced/traced - 1) * 100
}

// replayInProcess replays connection 0's issued stream through an
// in-process server's Handler().ServeHTTP, one call per request, and
// returns the handler p50 over all routes and over scalar percentile
// GETs, in microseconds. Like epserve, the server has a telemetry
// registry and formats an access-log line per request (to io.Discard);
// the registry is handed to it alone and not installed as the global
// one, so the kernels' own instruments, which epserve records through
// the global registry, stay out of the handler figures.
func replayInProcess(e *env, warmReqs []*request, conns []*connStream, budget time.Duration, tr *telemetry.Tracer, rep *report) (all, get float64, err error) {
	logger, err := cli.AddLogFlags(flag.NewFlagSet("epserve", flag.ContinueOnError)).Logger(io.Discard)
	if err != nil {
		return 0, 0, err
	}
	srv, err := serve.New(serve.Config{Catalog: e.catalog, Workloads: e.registry,
		Telemetry: telemetry.New(), Logger: logger})
	if err != nil {
		return 0, 0, fmt.Errorf("in-process server: %w", err)
	}
	h := srv.Handler()
	var meter *runtimeMeter // set once warm-up is done
	serveOne := func(r *request) int {
		var body io.Reader
		if r.body != nil {
			body = bytes.NewReader(r.body)
		}
		req := httptest.NewRequest(r.method, r.path, body)
		if r.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		w := httptest.NewRecorder()
		meter.begin()
		h.ServeHTTP(w, req)
		meter.end()
		return w.Code
	}
	for _, r := range warmReqs {
		if code := serveOne(r); code != http.StatusOK {
			return 0, 0, fmt.Errorf("in-process warm-up %s: status %d", r.route, code)
		}
	}

	byRoute := map[string][]float64{}
	var allUs, getUs []float64
	stream := conns[0].issued
	meter = newRuntimeMeter()
	deadline := time.Now().Add(budget)
	n := 0
	// serve-hot's stream is a short cycle, so the replay cycles too;
	// serve-cold's is never replayed to its end within the budget.
	for ; len(stream) > 0 && time.Now().Before(deadline); n++ {
		r := stream[n%len(stream)]
		s, _ := startSpan(tr, 0, "serve.Server.Handler.ServeHTTP", 0, newOp(tr))
		t0 := time.Now()
		code := serveOne(r)
		us := micros(time.Since(t0))
		s.End()
		rep.attempted++
		if code < 200 || code >= 300 {
			rep.fail("in-process %s %s: status %d", r.method, r.path, code)
		}
		byRoute[r.route] = append(byRoute[r.route], us)
		allUs = append(allUs, us)
		if r.route == routePctGet {
			getUs = append(getUs, us)
		}
	}
	rep.runtime["serve"] = meter.cost()
	for _, route := range routes {
		rep.layer["serve.handler_us_p50."+route] = quantile(byRoute[route], 0.50)
		rep.layer["serve.handler_us_p99."+route] = quantile(byRoute[route], 0.99)
	}
	return median(allUs), median(getUs), nil
}

// directCompute times the library calls behind the serve mix on a twin
// stream: same request shapes, fresh values, so that serve-cold's
// direct calls miss the percentile cache just as its requests did.
func directCompute(e *env, twins []*connStream, budget time.Duration, handlerGetP50 float64, tr *telemetry.Tracer, rep *report) {
	var pctTotal, epTotal time.Duration
	var pctN, epN int
	var getUs []float64
	deadline := time.Now().Add(budget)
	gen := twins[0].gen
	for time.Now().Before(deadline) {
		r := gen.next()
		op := newOp(tr)
		switch {
		case r.pcts != nil:
			var reqTotal time.Duration
			s, _ := startSpan(tr, 0, "queueing.Spec.Build+Percentiles", 0, op)
			for _, it := range r.pcts {
				t0 := time.Now()
				_, err := e.directPct(it)
				reqTotal += time.Since(t0)
				if err != nil {
					rep.fail("direct percentiles %+v: %v", it, err)
				}
				pctN++
			}
			s.End()
			pctTotal += reqTotal
			if r.route == routePctGet {
				getUs = append(getUs, micros(reqTotal))
			}
		case r.ep != nil:
			s, _ := startSpan(tr, 0, "energyprop.Analyze+Metrics", 0, op)
			t0 := time.Now()
			_, err := e.directEp(*r.ep)
			epTotal += time.Since(t0)
			s.End()
			if err != nil {
				rep.fail("direct epmetrics %+v: %v", *r.ep, err)
			}
			epN++
		}
	}
	if pctN > 0 {
		rep.layer["queueing.compute_us_per_eval"] = micros(pctTotal) / float64(pctN)
	}
	if epN > 0 {
		rep.layer["energyprop.compute_us_per_eval"] = micros(epTotal) / float64(epN)
	}
	rep.layer["serve.pipeline_self_us"] = handlerGetP50 - median(getUs)
}

// checkServe re-sends a seeded sample of each connection's issued
// requests and compares the answers with direct library calls.
func checkServe(e *env, client *http.Client, base string, seed uint64, conns []*connStream, rep *report) {
	rng := rand.New(rand.NewPCG(seed, streamCheck))
	for _, cs := range conns {
		pool := cs.issued[:min(len(cs.issued), 512)]
		for i := 0; i < checksPerConn && len(pool) > 0; i++ {
			r := pool[rng.IntN(len(pool))]
			rep.attempted++
			status, body, err := send(client, base, r)
			if err != nil || status != http.StatusOK {
				rep.fail("check %s %s: status %d err %v: %.200s", r.method, r.path, status, err, body)
				continue
			}
			if err := e.checkResponse(r, body); err != nil {
				rep.fail("check %s %s: %v", r.method, r.path, err)
			}
		}
	}
}

func decode(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"repro/internal/scenario"
	"repro/internal/serve"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv("", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// streams renders everything a seed generates as bytes: each
// connection's requests on both serve mixes, the warm-up, the sweep
// cases and the scenario YAML.
func streams(seed uint64, n int) []byte {
	var b bytes.Buffer
	mixes := serveMixes(seed)
	for _, hot := range []bool{true, false} {
		for conn := 0; conn < 2; conn++ {
			for _, valueStream := range []uint64{streamServeValues, streamServeTwin} {
				g := newServeGen(seed, conn, hot, valueStream, mixes)
				for i := 0; i < n; i++ {
					r := g.next()
					b.WriteString(r.method + " " + r.path + "\n")
					b.Write(r.body)
				}
			}
		}
	}
	for _, r := range warmupRequests(mixes) {
		b.WriteString(r.path)
		b.Write(r.body)
	}
	sg := newSweepGen(seed)
	for i := 0; i < n; i++ {
		b.WriteString(sg.next().String() + "\n")
	}
	fg := newFleetGen(seed)
	for i := 0; i < n/10; i++ {
		b.Write(fg.next())
	}
	return b.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b := streams(7, 100), streams(7, 100)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	c := streams(8, 100)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestTwinStreamSharesShapeNotValues(t *testing.T) {
	mixes := serveMixes(3)
	g := newServeGen(3, 0, false, streamServeValues, mixes)
	twin := newServeGen(3, 0, false, streamServeTwin, mixes)
	for i := 0; i < 200; i++ {
		r, tw := g.next(), twin.next()
		if r.route != tw.route || r.evals != tw.evals {
			t.Fatalf("request %d: %s/%d vs twin %s/%d", i, r.route, r.evals, tw.route, tw.evals)
		}
		if r.pcts != nil && r.pcts[0].u == tw.pcts[0].u {
			t.Fatalf("request %d: twin drew the same utilization %g", i, r.pcts[0].u)
		}
	}
}

// TestEveryBlockHoldsTheMix checks that each block of deckSize
// requests holds the mix's weights exactly, and that its batches carry
// as many evaluations as its scalar percentiles GETs, give or take one
// percent.
func TestEveryBlockHoldsTheMix(t *testing.T) {
	g := newServeGen(9, 0, false, streamServeValues, serveMixes(9))
	for block := 0; block < 3; block++ {
		count := map[string]int{}
		batchEvals := 0
		for i := 0; i < deckSize; i++ {
			r := g.next()
			count[r.route]++
			if r.route == routePctBatch {
				if r.evals < 8 || r.evals > 64 {
					t.Fatalf("batch of %d items, want 8-64", r.evals)
				}
				batchEvals += r.evals
			}
		}
		want := map[string]int{routePctGet: 710, routeEp: 240, routeFrontier: 30, routePctBatch: deckBatches}
		for route, n := range want {
			if count[route] != n {
				t.Errorf("block %d: %d %s requests, want %d", block, count[route], route, n)
			}
		}
		if d := batchEvals - count[routePctGet]; d < -deckSize/100 || d > deckSize/100 {
			t.Errorf("block %d: batches carry %d evaluations, scalar GETs %d", block, batchEvals, count[routePctGet])
		}
	}
}

func TestSweepCasesInRange(t *testing.T) {
	e := testEnv(t)
	g := newSweepGen(1)
	for i := 0; i < 200; i++ {
		c := g.next()
		if c.MaxA9 < 6 || c.MaxA9 > 14 || c.MaxK10 < 6 || c.MaxK10 > 14 {
			t.Fatalf("case %v: node counts outside 6-14", c)
		}
		if _, ok := e.profiles[c.Workload]; !ok {
			t.Fatalf("case %v: unknown workload", c)
		}
	}
}

// TestScenariosParseAndBuild checks generated scenarios the way
// epfleet -check does.
func TestScenariosParseAndBuild(t *testing.T) {
	e := testEnv(t)
	for _, seed := range []uint64{1, 2, 3} {
		g := newFleetGen(seed)
		for i := 0; i < 20; i++ {
			yaml := g.next()
			sc, err := scenario.Parse(yaml)
			if err != nil {
				t.Fatalf("seed %d scenario %d: %v\n%s", seed, i, err, yaml)
			}
			spec, err := sc.Build(e.catalog, e.registry)
			if err != nil {
				t.Fatalf("seed %d scenario %d: %v\n%s", seed, i, err, yaml)
			}
			if n := spec.NodeCount(); n < 800 || n > 2000 {
				t.Fatalf("seed %d scenario %d: %d nodes", seed, i, n)
			}
		}
	}
}

// TestRequestsAnswer2xx sends the warm-up and the first requests of
// every stream to an in-process server and checks that each answers
// 2xx with no batch item errors, and that the answers match the direct
// library calls.
func TestRequestsAnswer2xx(t *testing.T) {
	e := testEnv(t)
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	do := func(r *request) *httptest.ResponseRecorder {
		var body *bytes.Reader
		if r.body != nil {
			body = bytes.NewReader(r.body)
		} else {
			body = bytes.NewReader(nil)
		}
		req := httptest.NewRequest(r.method, r.path, body)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code < 200 || w.Code >= 300 {
			t.Fatalf("%s %s: status %d: %s", r.method, r.path, w.Code, w.Body.String())
		}
		if n, _ := strconv.Atoi(w.Header().Get("X-Batch-Errors")); n != 0 {
			t.Fatalf("%s %s: %d batch item errors", r.method, r.path, n)
		}
		return w
	}
	mixes := serveMixes(5)
	for _, r := range warmupRequests(mixes) {
		do(r)
	}
	n := 150
	if testing.Short() {
		n = 20
	}
	for _, hot := range []bool{true, false} {
		for conn := 0; conn < 2; conn++ {
			g := newServeGen(5, conn, hot, streamServeValues, mixes)
			for i := 0; i < n; i++ {
				r := g.next()
				w := do(r)
				if i%10 == 0 {
					if err := e.checkResponse(r, w.Body.Bytes()); err != nil {
						t.Fatalf("%s %s: %v", r.method, r.path, err)
					}
				}
			}
		}
	}
}

func TestRecorderCountsEvaluations(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Batch-Errors", "2")
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	reqs := []*request{{route: routePctBatch, method: "POST", path: "/v1/percentiles", body: []byte("{}"), evals: 10}}
	rec := &recorder{base: http.DefaultTransport, reqs: reqs}
	client := &http.Client{Transport: rec}
	resp, err := client.Post(ts.URL+"/v1/percentiles#0", "application/json", bytes.NewReader(reqs[0].body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rec.evals != 8 || len(rec.samples) != 1 || rec.samples[0].evals != 8 {
		t.Fatalf("evals %d samples %+v, want 8 in one sample", rec.evals, rec.samples)
	}
	if _, err := client.Get(ts.URL + "/untagged"); err == nil {
		t.Fatal("a request without a target tag was sent")
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that the metrics a run
// prints are exactly those BENCHMARK.json declares, with their units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		printed := metricsOut(defs, map[string]float64{}, func(string) {})
		if len(printed) != len(declared) {
			t.Errorf("%s: %d printed, %d declared", kind, len(printed), len(declared))
		}
		for _, d := range declared {
			m, ok := printed[d.Name]
			if !ok {
				t.Errorf("%s: %s declared but not printed", kind, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: %s unit %q printed, %q declared", kind, d.Name, m.Unit, d.Unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloadDefs) {
		t.Errorf("%d workloads declared, %d defined", len(decl.Workloads), len(workloadDefs))
	}
	for _, w := range decl.Workloads {
		if _, ok := workloadDefs[w.Name]; !ok {
			t.Errorf("workload %s declared but not defined", w.Name)
		}
	}
}

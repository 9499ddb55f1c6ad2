// Command perfbench is the repository's benchmark: one command that
// runs a named workload from a seed, checks every output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics and
// a Chrome trace) as one JSON line. README.md explains the workloads,
// the metrics and how to read the trace.
//
// Usage, from the repository root (run.sh builds it and epserve first):
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/energyprop"
	"repro/internal/hardware"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Seeded random streams: every input is drawn from (seed, stream), so
// one plane's draws never shift another's.
const (
	streamFrontier    = 1
	streamReference   = 2
	streamFleet       = 3
	streamServeMixes  = 4
	streamCheck       = 5
	streamServeShape  = 100 // + connection
	streamServeValues = 200 // + connection
	streamServeTwin   = 300 // + connection
)

// The three planes a run measures.
const (
	planeServe    = "serve"
	planeFrontier = "frontier"
	planeFleet    = "fleet"
)

// Every run measures all three planes, so that it can report every
// end-to-end metric; the workload picks the plane that gets
// primaryShare of the run (and whose set-up and memory it reports) and
// the serve mix. The other two planes get the rest in equal parts.
const primaryShare = 0.6

type workloadDef struct {
	primary string
	hot     bool // serve mix: warmed grid (hot) or fresh values (cold)
}

var workloadDefs = map[string]workloadDef{
	"serve-hot":      {planeServe, true},
	"serve-cold":     {planeServe, false},
	"frontier-sweep": {planeFrontier, true},
	"fleet-chaos":    {planeFleet, true},
}

// metricDef is one printed metric; the lists match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"evals_per_s", "evaluations/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"sweep_configs_per_s", "configs/s"},
	{"sweep_configs_per_s_par", "configs/s"},
	{"fleet_node_s_per_s", "node-s/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{{"net.roundtrip_self_us", "us"}}
	for _, r := range routes {
		defs = append(defs, metricDef{"serve.handler_us_p50." + r, "us"}, metricDef{"serve.handler_us_p99." + r, "us"})
	}
	return append(defs,
		metricDef{"serve.pipeline_self_us", "us"},
		metricDef{"serve.queue_waits", "count"},
		metricDef{"serve.coalesced_ratio", "ratio"},
		metricDef{"serve.shed", "count"},
		metricDef{"queueing.compute_us_per_eval", "us"},
		metricDef{"energyprop.compute_us_per_eval", "us"},
		metricDef{"queueing.cache_hit_ratio", "ratio"},
		metricDef{"queueing.cache_misses", "count"},
		metricDef{"model.table_build_ms", "ms"},
		metricDef{"pareto.sweep_ms_w1", "ms"},
		metricDef{"pareto.sweep_ms_wN", "ms"},
		metricDef{"pareto.filtered_sweep_ms", "ms"},
		metricDef{"pareto.parallel_speedup", "ratio"},
		metricDef{"pareto.pruned_ratio", "ratio"},
		metricDef{"pareto.frontier_points", "count"},
		metricDef{"scenario.parse_ms", "ms"},
		metricDef{"scenario.build_ms", "ms"},
		metricDef{"fleet.new_ms", "ms"},
		metricDef{"fleet.run_ms", "ms"},
		metricDef{"fleet.events", "count"},
		metricDef{"fleet.ns_per_event", "ns"},
		metricDef{"fleet.chaos_events", "count"},
		metricDef{"runtime.allocs_per_op", "allocs/op"},
		metricDef{"runtime.bytes_per_op", "B/op"},
		metricDef{"runtime.gc_cpu_fraction", "ratio"},
		metricDef{"bench.tracing_overhead_pct", "%"},
	)
}()

// spanIDs and opIDs number the traced run's spans and operations.
var spanIDs, opIDs atomic.Int64

// startSpan opens a span named name on track tid of tr, carrying its
// own id, its parent's id (0 for a root) and its operation id (one
// request, sweep or scenario), and returns the span and its id. With a
// nil tracer, as in the untraced run, the span is nil (End is a no-op)
// and the id is 0.
func startSpan(tr *telemetry.Tracer, tid int, name string, parent, op int64) (*telemetry.Span, int64) {
	if tr == nil {
		return nil, 0
	}
	id := spanIDs.Add(1)
	return tr.StartOn(tid, name).Arg("id", id).Arg("parent", parent).Arg("op", op), id
}

// newOp returns a fresh operation id, or 0 with a nil tracer.
func newOp(tr *telemetry.Tracer) int64 {
	if tr == nil {
		return 0
	}
	return opIDs.Add(1)
}

// writeTrace stores the spans as Chrome trace-event JSON.
func writeTrace(tr *telemetry.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// env holds what every plane shares: the model environment epserve
// and epfleet load by default, and the run's settings.
type env struct {
	catalog  *hardware.Catalog
	registry *workload.Registry
	profiles map[string]*workload.Profile
	a9, k10  *hardware.NodeType
	nproc    int
	epserve  string
	outDir   string
	analyses map[string]*energyprop.Analysis
}

func newEnv(epserve, outDir string) (*env, error) {
	catalog, registry, err := cli.LoadEnvironment("", "")
	if err != nil {
		return nil, err
	}
	e := &env{catalog: catalog, registry: registry, profiles: map[string]*workload.Profile{},
		nproc: runtime.GOMAXPROCS(0), epserve: epserve, outDir: outDir,
		analyses: map[string]*energyprop.Analysis{}}
	for _, name := range workload.PaperNames() {
		if e.profiles[name], err = registry.Lookup(name); err != nil {
			return nil, err
		}
	}
	if e.a9, err = catalog.Lookup("A9"); err != nil {
		return nil, err
	}
	if e.k10, err = catalog.Lookup("K10"); err != nil {
		return nil, err
	}
	return e, nil
}

// report gathers one run's measurements and failures.
type report struct {
	e2e, layer        map[string]float64
	attempted, failed int64
	setups, rss       map[string]float64 // by plane
	runtime           map[string]runtimeCost
	overhead          map[string]float64
	latencySamples    int
	notes             int
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{},
		setups: map[string]float64{}, rss: map[string]float64{},
		runtime: map[string]runtimeCost{}, overhead: map[string]float64{}}
}

// fail counts a failed operation and describes it on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.note(fmt.Sprintf(format, args...))
}

// note prints a diagnostic on stderr, at most 20 per run.
func (r *report) note(msg string) {
	if r.notes++; r.notes <= 20 {
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "serve-hot, serve-cold, frontier-sweep or fleet-chaos")
	seed := flag.Uint64("seed", 1, "seed every input is drawn from")
	seconds := flag.Float64("seconds", 12, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics and writes a trace; 0 the end-to-end metrics")
	epserve := flag.String("epserve", filepath.Join(".bench_build", "bin", "epserve"), "epserve binary built from the commit under test")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the trace and host files")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllChildren()
		os.Exit(2)
	}()

	if err := run(*workloadName, *seed, *seconds, *trace == 1, *epserve, *outDir); err != nil {
		stopAllChildren()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, epserve, outDir string) error {
	def, ok := workloadDefs[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if _, err := os.Stat(epserve); err != nil {
		return fmt.Errorf("epserve binary: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	e, err := newEnv(epserve, outDir)
	if err != nil {
		return err
	}
	if err := printHost(outDir); err != nil {
		return err
	}

	var tr *telemetry.Tracer
	if traced {
		tr = telemetry.NewTracer()
	}
	rep := newReport()
	planes, budgets, err := setUpPlanes(e, def, seed, time.Duration(seconds*float64(time.Second)), tr, rep)
	defer func() {
		for _, p := range planes {
			p.close()
		}
	}()
	if err != nil {
		return err
	}

	// The planes take turns in rounds of about roundLength, in slices
	// sized so that each plane's time after round r is r/rounds of its
	// budget: a slow stretch of the host then falls on every plane's
	// measurement a little, not on one plane's whole.
	rounds := max(1, int(math.Round(seconds/roundLength.Seconds())))
	used := make([]time.Duration, len(planes))
	for r := 1; r <= rounds; r++ {
		for i, p := range planes {
			d := budgets[i]*time.Duration(r)/time.Duration(rounds) - used[i]
			if d <= 0 {
				continue
			}
			// Each slice starts from a collected heap, so that the
			// garbage another plane left is not collected inside it.
			runtime.GC()
			t0 := time.Now()
			if err := p.slice(d, rep); err != nil {
				return fmt.Errorf("%s: %w", order(def)[i], err)
			}
			used[i] += time.Since(t0)
			// An in-process primary plane's peak memory is read after its
			// first slice, before the other in-process plane has run.
			if r == 1 && i == 0 && def.primary != planeServe {
				if rep.rss[def.primary], err = vmHWM(0); err != nil {
					return err
				}
			}
		}
	}
	for i, p := range planes {
		if err := p.finish(rep); err != nil {
			return fmt.Errorf("%s: %w", order(def)[i], err)
		}
	}

	out := resultOut{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed}
	defs := endToEnd
	values := rep.e2e
	if traced {
		defs = perLayer
		values = rep.layer
		c := rep.runtime[def.primary]
		values["runtime.allocs_per_op"] = c.allocsPerOp
		values["runtime.bytes_per_op"] = c.bytesPerOp
		values["runtime.gc_cpu_fraction"] = c.gcCPUFraction
		values["bench.tracing_overhead_pct"] = rep.overhead[def.primary]
		path := filepath.Join(outDir, "trace-"+name+".json")
		if err := writeTrace(tr, path); err != nil {
			return err
		}
		fmt.Printf("trace: %s (%d spans, %d dropped)\n", path, tr.Len(), tr.Dropped())
	} else {
		values["setup_s"] = rep.setups[def.primary]
		values["peak_rss_mb"] = rep.rss[def.primary]
		fmt.Printf("latency samples: %d\n", rep.latencySamples)
	}
	out.Metrics = metricsOut(defs, values, rep.note)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricsOut pairs every declared metric with its measured value. A
// metric the run could not measure is printed as 0 and noted.
func metricsOut(defs []metricDef, values map[string]float64, note func(string)) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			note(fmt.Sprintf("metric %s not measured (%v)", d.name, v))
			v = 0
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out
}

// roundLength is the length of one round of slices.
const roundLength = 2 * time.Second

// plane is one measured part of a run. Its constructor does the timed
// set-up; slice measures it for about d; finish checks its outputs and
// reports its metrics; close stops what it started.
type plane interface {
	slice(d time.Duration, rep *report) error
	finish(rep *report) error
	close()
}

// order lists the planes with the workload's primary first.
func order(def workloadDef) []string {
	names := []string{def.primary}
	for _, p := range []string{planeServe, planeFrontier, planeFleet} {
		if p != def.primary {
			names = append(names, p)
		}
	}
	return names
}

// setUpPlanes sets up the three planes in order(def) and returns them
// with their measured budgets out of total. Traced, the serve plane's
// closed loops get half its budget and finish's replay and direct
// calls a quarter each. On error it returns the planes set up so far,
// for the caller to close.
func setUpPlanes(e *env, def workloadDef, seed uint64, total time.Duration, tr *telemetry.Tracer, rep *report) ([]plane, []time.Duration, error) {
	probe := time.Duration(float64(total) * (1 - primaryShare) / 2)
	var planes []plane
	var budgets []time.Duration
	for _, name := range order(def) {
		primary := name == def.primary
		budget := probe
		if primary {
			budget = total - 2*probe
		}
		switch name {
		case planeServe:
			reps := 1
			if primary && tr == nil {
				reps = setupReps
			}
			var extra time.Duration
			if tr != nil {
				extra, budget = budget/4, budget/2
			}
			p, err := newServePlane(e, seed, def.hot || !primary, reps, extra, tr, rep)
			planes = append(planes, p)
			if err != nil {
				return planes, nil, fmt.Errorf("%s: %w", name, err)
			}
		case planeFrontier:
			planes = append(planes, newFrontierPlane(e, seed, primary, tr, rep))
		case planeFleet:
			planes = append(planes, newFleetPlane(e, seed, primary, tr))
		}
		budgets = append(budgets, budget)
	}
	return planes, budgets, nil
}

// hostRecord is the line printed before the result: the host block, and
// whether the previous result in the output directory came from the
// same host. Results from different hosts are not comparable.
type hostRecord struct {
	Host       hostInfo `json:"host"`
	Comparable bool     `json:"comparable_with_previous"`
}

func printHost(outDir string) error {
	h := readHost()
	rec := hostRecord{Host: h, Comparable: true}
	path := filepath.Join(outDir, "host.json")
	if data, err := os.ReadFile(path); err == nil {
		var prev hostInfo
		if json.Unmarshal(data, &prev) == nil && !h.sameHost(prev) {
			rec.Comparable = false
			fmt.Fprintf(os.Stderr, "perfbench: host differs from the previous result's host (%+v); results are not comparable\n", prev)
		}
	}
	data, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("recording host: %w", err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

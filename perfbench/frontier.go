package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// minSweeps is how many sweeps every frontier run makes, however short
// its budget, so that pareto.frontier_points counts the same seeded
// sweeps on every run of a seed.
const minSweeps = 36

// warmupFor is how long the untimed warm-up sweeps run, from a stream
// keyed by seed ^ warmupSeed.
const (
	warmupFor  = 1500 * time.Millisecond
	warmupSeed = 0x5eed
)

// tableReps is how many times set-up builds the six tables; setup_s is
// the median, since one build takes well under a millisecond.
const tableReps = 201

// sweepCase is one seeded frontier sweep: a paper workload over the
// A9/K10 space with free cores and DVFS, optionally under a peak-power
// budget given as a fraction of the space's largest peak.
type sweepCase struct {
	Workload      string
	MaxA9, MaxK10 int
	PowerFrac     float64 // 0: no filter
}

// sweepGen draws the seeded sweep sequence. The workload and the
// filter follow a fixed rotation (six workloads; every fourth sweep
// filtered), so every block of 12 consecutive sweeps holds the same mix
// and only the space sizes and budgets are drawn: the composition of a
// run then does not depend on the seed or on how many sweeps fit in it.
type sweepGen struct {
	rng *rand.Rand
	n   int
}

func newSweepGen(seed uint64) *sweepGen {
	return &sweepGen{rng: rand.New(rand.NewPCG(seed, streamFrontier))}
}

func (g *sweepGen) next() sweepCase {
	names := workload.PaperNames()
	c := sweepCase{
		Workload: names[g.n%len(names)],
		MaxA9:    6 + g.rng.IntN(9),
		MaxK10:   6 + g.rng.IntN(9),
	}
	if g.n%4 == 3 {
		c.PowerFrac = 0.3 + 0.5*g.rng.Float64()
	}
	g.n++
	return c
}

// limits returns the sweep's space: both node types with every core
// count and DVFS step free.
func (c sweepCase) limits(e *env) []cluster.Limit {
	return []cluster.Limit{{Type: e.a9, MaxNodes: c.MaxA9}, {Type: e.k10, MaxNodes: c.MaxK10}}
}

// filter returns the sweep's peak-power filter, or nil.
func (c sweepCase) filter(e *env) func(cluster.Config) bool {
	if c.PowerFrac == 0 {
		return nil
	}
	full := cluster.MustConfig(cluster.FullNodes(e.a9, c.MaxA9), cluster.FullNodes(e.k10, c.MaxK10))
	budget := c.PowerFrac * float64(full.NominalPeak())
	return func(cfg cluster.Config) bool { return float64(cfg.NominalPeak()) <= budget }
}

// frontierStats accumulates the sweeps of one stream: the untraced
// baseline or the measured sweeps of the frontier plane.
type frontierStats struct {
	gen             *sweepGen
	meter           *runtimeMeter // nil: allocations not priced
	sweeps          int
	configs         float64 // Σ SpaceSize
	w1, wN          time.Duration
	w1ms, wNms, fms []float64
	pruned          float64
	frontierPoints  int // over the first minSweeps sweeps
	refIdx          int
	refCase         sweepCase
	refFrontier     []pareto.Point
}

// buildTables is the frontier plane's set-up: one model.Table per
// paper workload, snapshotted over the largest space a sweep draws.
func buildTables(e *env, tr *telemetry.Tracer) (map[string]*model.Table, time.Duration) {
	op := newOp(tr)
	maxLimits := sweepCase{MaxA9: 14, MaxK10: 14}.limits(e)
	tables := make(map[string]*model.Table, len(e.profiles))
	start := time.Now()
	for _, name := range workload.PaperNames() {
		s, _ := startSpan(tr, 0, "model.NewTable", 0, op)
		t := model.NewTable(e.profiles[name], model.Options{})
		s.End()
		s, _ = startSpan(tr, 0, "model.Table.Snapshot", 0, op)
		t.Snapshot(maxLimits)
		s.End()
		tables[name] = t
	}
	return tables, time.Since(start)
}

// frontierPlane sweeps seeded cases, each at Workers: 1 and
// Workers: nproc on a shared table, and checks every pair and one
// reference sweep. A traced primary plane sweeps untraced for half of
// every slice (the baseline) and traced for the other half; the rate
// difference is the tracing overhead.
type frontierPlane struct {
	e        *env
	tr       *telemetry.Tracer
	primary  bool
	tables   map[string]*model.Table
	setup    float64
	base, st frontierStats
}

func newFrontierPlane(e *env, seed uint64, primary bool, tr *telemetry.Tracer, rep *report) *frontierPlane {
	p := &frontierPlane{e: e, tr: tr, primary: primary}
	var setups []float64
	for i := 0; i < tableReps; i++ {
		var d time.Duration
		p.tables, d = buildTables(e, tr)
		setups = append(setups, d.Seconds())
	}
	p.setup = median(setups)

	// Untimed warm-up sweeps from their own stream. For the first second
	// or so of a process, Workers: nproc sweeps get no parallel speedup
	// while the Go heap settles (with GOGC=off they get it at once);
	// timing from a cold start made sweep_configs_per_s_par swing by a
	// fifth with how long that phase lasted.
	warmGen := newSweepGen(seed ^ warmupSeed)
	for deadline := time.Now().Add(warmupFor); time.Now().Before(deadline); {
		c := warmGen.next()
		for _, w := range []int{1, e.nproc} {
			rep.attempted++
			if _, err := pareto.FrontierSweep(c.limits(e), e.profiles[c.Workload], model.Options{},
				pareto.SweepOptions{Workers: w, Filter: c.filter(e), Table: p.tables[c.Workload]}); err != nil {
				rep.fail("warm-up sweep %v: %v", c, err)
			}
		}
	}

	refIdx := rand.New(rand.NewPCG(seed, streamReference)).IntN(minSweeps)
	p.base = frontierStats{gen: newSweepGen(seed), refIdx: -1}
	p.st = frontierStats{gen: newSweepGen(seed), refIdx: refIdx}
	if tr != nil {
		p.st.meter = newRuntimeMeter()
	}
	return p
}

func (p *frontierPlane) slice(d time.Duration, rep *report) error {
	if p.tr != nil && p.primary {
		p.sweep(&p.base, d/2, nil, rep)
		d /= 2
	}
	p.sweep(&p.st, d, p.tr, rep)
	return nil
}

// sweep runs st's next seeded sweeps until d has passed, at least one.
func (p *frontierPlane) sweep(st *frontierStats, d time.Duration, tr *telemetry.Tracer, rep *report) {
	e := p.e
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		c := st.gen.next()
		wl := e.profiles[c.Workload]
		limits := c.limits(e)
		filter := c.filter(e)
		space := cluster.SpaceSize(limits)
		op := newOp(tr)
		root, rootID := startSpan(tr, 0, "frontier.sweep", 0, op)

		var s1, sN pareto.SweepStats
		s, _ := startSpan(tr, 0, "pareto.FrontierSweep/w1", rootID, op)
		st.meter.begin()
		t0 := time.Now()
		f1, err1 := pareto.FrontierSweep(limits, wl, model.Options{}, pareto.SweepOptions{
			Workers: 1, Filter: filter, Table: p.tables[c.Workload], Stats: &s1})
		d1 := time.Since(t0)
		st.meter.end()
		s.End()
		s, _ = startSpan(tr, 0, "pareto.FrontierSweep/wN", rootID, op)
		st.meter.begin()
		t0 = time.Now()
		fN, errN := pareto.FrontierSweep(limits, wl, model.Options{}, pareto.SweepOptions{
			Workers: e.nproc, Filter: filter, Table: p.tables[c.Workload], Stats: &sN})
		dN := time.Since(t0)
		st.meter.end()
		s.End()
		root.End()

		rep.attempted++
		switch {
		case err1 != nil || errN != nil:
			rep.fail("frontier sweep %+v: %v / %v", c, err1, errN)
		case !sameFrontier(f1, fN):
			rep.fail("frontier sweep %+v: Workers 1 and %d frontiers differ", c, e.nproc)
		case s1.Evaluated+s1.Skipped+s1.Filtered+s1.Pruned != int64(space) ||
			sN.Evaluated+sN.Skipped+sN.Filtered+sN.Pruned != int64(space):
			rep.fail("frontier sweep %+v: accounting %+v / %+v does not sum to %d", c, s1, sN, space)
		}

		st.configs += float64(space)
		st.w1 += d1
		st.wN += dN
		st.w1ms = append(st.w1ms, d1.Seconds()*1e3)
		st.wNms = append(st.wNms, dN.Seconds()*1e3)
		if filter != nil {
			st.fms = append(st.fms, d1.Seconds()*1e3)
		}
		st.pruned += float64(s1.Pruned)
		if st.sweeps < minSweeps {
			st.frontierPoints += len(f1)
		}
		if st.sweeps == st.refIdx {
			st.refCase, st.refFrontier = c, f1
		}
		st.sweeps++
	}
}

// finish sweeps up to minSweeps if the slices fell short, checks the
// seed's reference sweep and reports the plane's metrics.
func (p *frontierPlane) finish(rep *report) error {
	for p.st.sweeps < minSweeps {
		p.sweep(&p.st, 0, p.tr, rep)
	}
	st := &p.st
	// The reference engine evaluates every configuration through
	// model.Evaluate; it is slow, so it runs once, outside the timed
	// slices.
	e := p.e
	rep.attempted++
	ref, err := pareto.FrontierSweep(st.refCase.limits(e), e.profiles[st.refCase.Workload], model.Options{},
		pareto.SweepOptions{Reference: true, Workers: e.nproc, Filter: st.refCase.filter(e)})
	switch {
	case err != nil:
		rep.fail("reference sweep %+v: %v", st.refCase, err)
	case !sameFrontier(ref, st.refFrontier):
		rep.fail("reference sweep %+v: fast frontier differs from the reference", st.refCase)
	}

	// The rates are totals over the timed sweeps, not medians over blocks
	// of sweeps: on a 2-vCPU host the Workers: nproc sweeps switched from
	// second to second between a parallel speedup of about 1.0 and about
	// 1.25, and a median block fell in either cluster.
	rep.e2e["sweep_configs_per_s"] = st.configs / st.w1.Seconds()
	rep.e2e["sweep_configs_per_s_par"] = st.configs / st.wN.Seconds()
	rep.layer["model.table_build_ms"] = p.setup * 1e3
	rep.layer["pareto.sweep_ms_w1"] = median(st.w1ms)
	rep.layer["pareto.sweep_ms_wN"] = median(st.wNms)
	rep.layer["pareto.filtered_sweep_ms"] = median(st.fms)
	rep.layer["pareto.parallel_speedup"] = st.w1.Seconds() / st.wN.Seconds()
	rep.layer["pareto.pruned_ratio"] = st.pruned / st.configs
	rep.layer["pareto.frontier_points"] = float64(st.frontierPoints)
	rep.setups[planeFrontier], rep.runtime[planeFrontier] = p.setup, st.meter.cost()
	if p.base.sweeps > 0 {
		rep.overhead[planeFrontier] = overheadPct(p.base.configs/p.base.w1.Seconds(), st.configs/st.w1.Seconds())
	}
	return nil
}

func (p *frontierPlane) close() {}

// sameFrontier reports whether two frontiers are bitwise identical.
func sameFrontier(a, b []pareto.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Config.Key() != b[i].Config.Key() ||
			math.Float64bits(float64(a[i].Time)) != math.Float64bits(float64(b[i].Time)) ||
			math.Float64bits(float64(a[i].Energy)) != math.Float64bits(float64(b[i].Energy)) {
			return false
		}
	}
	return true
}

func (c sweepCase) String() string {
	return fmt.Sprintf("%s %dxA9/%dxK10 power=%.3f", c.Workload, c.MaxA9, c.MaxK10, c.PowerFrac)
}

package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// minScenarios is how many scenarios every fleet run makes, however
// short its budget, so that fleet.events and fleet.chaos_events count
// the same seeded scenarios on every run of a seed.
const minScenarios = 3

// fleetGen draws seeded scenarios as YAML text shaped like
// examples/scenarios/chaos-fleet.yaml: 800-2,000 A9/K10 nodes for 30
// simulated minutes under per-scenario chaos rates. Half carry a
// latency probe with a closed-form kernel (mg1 at scv >= 1, or mmk),
// so the fleet workload leaves the percentile search to serve-cold.
// The workload and the probe follow a fixed rotation (six workloads;
// no probe, mg1, no probe, mmk) and only the sizes and rates are
// drawn, so the mix of a run does not depend on the seed.
type fleetGen struct {
	rng *rand.Rand
	n   int
}

func newFleetGen(seed uint64) *fleetGen {
	return &fleetGen{rng: rand.New(rand.NewPCG(seed, streamFleet))}
}

func (g *fleetGen) next() []byte {
	r := g.rng
	g.n++
	var b strings.Builder
	names := workload.PaperNames()
	fmt.Fprintf(&b, "name: bench-%d\n", g.n)
	fmt.Fprintf(&b, "workload: %s\n", names[(g.n-1)%len(names)])
	fmt.Fprintf(&b, "seed: %d\n", r.Uint32())
	b.WriteString("duration: 30m\nslice: 10s\n")
	fmt.Fprintf(&b, "utilization: %.3f\n", 0.4+0.5*r.Float64())
	fmt.Fprintf(&b, "nodes: %d\n", 800+r.IntN(1201))
	fmt.Fprintf(&b, "fleet:\n  - type: A9\n    weight: %d\n  - type: K10\n    weight: %d\n", 1+r.IntN(4), 1+r.IntN(2))
	b.WriteString("chaos:\n")
	fmt.Fprintf(&b, "  mtbf: %dm\n", 120+r.IntN(361))
	fmt.Fprintf(&b, "  mttr: %dm\n", 10+r.IntN(31))
	fmt.Fprintf(&b, "  throttle_every: %dm\n", 60+r.IntN(301))
	fmt.Fprintf(&b, "  throttle_for: %dm\n", 2+r.IntN(9))
	fmt.Fprintf(&b, "  throttle_factor: %.3f\n", 0.4+0.4*r.Float64())
	fmt.Fprintf(&b, "  cap_every: %dm\n", 180+r.IntN(541))
	fmt.Fprintf(&b, "  cap_for: %dm\n", 5+r.IntN(16))
	fmt.Fprintf(&b, "  cap_fraction: %.3f\n", 0.6+0.3*r.Float64())
	fmt.Fprintf(&b, "  straggler_prob: %.4f\n", 0.05*r.Float64())
	fmt.Fprintf(&b, "  straggler_slowdown: %.3f\n", 1.5+1.5*r.Float64())
	switch (g.n - 1) % 4 {
	case 1:
		fmt.Fprintf(&b, "latency:\n  kernel: mg1\n  scv: %.3f\n  percentile: 95\n", 1+3*r.Float64())
	case 3:
		b.WriteString("latency:\n  kernel: mmk\n  percentile: 99\n")
	}
	return []byte(b.String())
}

// fleetStats accumulates the scenarios of one stream: the untraced
// baseline or the measured scenarios of the fleet plane.
type fleetStats struct {
	gen                          *fleetGen
	meter                        *runtimeMeter // nil: allocations not priced
	scenarios                    int
	nodeSeconds                  float64
	run                          time.Duration
	events                       uint64
	parseMs, buildMs, newMs, rMs []float64
	rates                        []float64 // node-s per wall-s, per scenario
	setups                       []float64
	firstEvents, firstChaos      int
}

// fleetPlane runs seeded scenarios through scenario.Parse -> Build ->
// fleet.New -> Run, checking that no step errs and that work is
// conserved. Its set-up is per scenario (Parse, Build and New). A
// traced primary plane runs untraced for half of every slice and traced
// for the other half; the rate difference is the tracing overhead.
type fleetPlane struct {
	e        *env
	tr       *telemetry.Tracer
	primary  bool
	base, st fleetStats
}

func newFleetPlane(e *env, seed uint64, primary bool, tr *telemetry.Tracer) *fleetPlane {
	p := &fleetPlane{e: e, tr: tr, primary: primary,
		base: fleetStats{gen: newFleetGen(seed)}, st: fleetStats{gen: newFleetGen(seed)}}
	if tr != nil {
		p.st.meter = newRuntimeMeter()
	}
	return p
}

func (p *fleetPlane) slice(d time.Duration, rep *report) error {
	if p.tr != nil && p.primary {
		p.runScenarios(&p.base, d/2, nil, rep)
		d /= 2
	}
	p.runScenarios(&p.st, d, p.tr, rep)
	return nil
}

// runScenarios runs st's next seeded scenarios until d has passed, at
// least one.
func (p *fleetPlane) runScenarios(st *fleetStats, d time.Duration, tr *telemetry.Tracer, rep *report) {
	e := p.e
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		yaml := st.gen.next()
		op := newOp(tr)
		root, rootID := startSpan(tr, 0, "fleet.scenario", 0, op)
		rep.attempted++

		st.meter.begin()
		s, _ := startSpan(tr, 0, "scenario.Parse", rootID, op)
		t0 := time.Now()
		sc, err := scenario.Parse(yaml)
		tParse := time.Since(t0)
		s.End()
		if err != nil {
			rep.fail("scenario.Parse: %v", err)
			continue
		}
		s, _ = startSpan(tr, 0, "scenario.Build", rootID, op)
		t1 := time.Now()
		spec, err := sc.Build(e.catalog, e.registry)
		tBuild := time.Since(t1)
		s.End()
		if err != nil {
			rep.fail("scenario.Build %s: %v", sc.Name, err)
			continue
		}
		s, _ = startSpan(tr, 0, "fleet.New", rootID, op)
		t2 := time.Now()
		sim, err := fleet.New(spec)
		tNew := time.Since(t2)
		s.End()
		if err != nil {
			rep.fail("fleet.New %s: %v", sc.Name, err)
			continue
		}
		s, _ = startSpan(tr, 0, "fleet.Simulator.Run", rootID, op)
		t3 := time.Now()
		res, err := sim.Run()
		tRun := time.Since(t3)
		s.End()
		root.End()
		st.meter.end()
		if err != nil {
			rep.fail("fleet.Run %s: %v", sc.Name, err)
			continue
		}
		sum := res.Summary
		if d := sum.OfferedUnits - sum.CompletedUnits - sum.LostUnits; math.Abs(d) > 1e-9*math.Max(1, sum.OfferedUnits) {
			rep.fail("fleet %s: offered %g != completed %g + lost %g", sc.Name, sum.OfferedUnits, sum.CompletedUnits, sum.LostUnits)
		}

		if st.scenarios < minScenarios {
			st.firstEvents += int(sum.Events)
			st.firstChaos += len(res.ChaosLog)
		}
		st.scenarios++
		st.nodeSeconds += float64(sum.Nodes) * sum.DurationSeconds
		st.run += tRun
		st.rates = append(st.rates, float64(sum.Nodes)*sum.DurationSeconds/tRun.Seconds())
		st.events += sum.Events
		st.parseMs = append(st.parseMs, tParse.Seconds()*1e3)
		st.buildMs = append(st.buildMs, tBuild.Seconds()*1e3)
		st.newMs = append(st.newMs, tNew.Seconds()*1e3)
		st.rMs = append(st.rMs, tRun.Seconds()*1e3)
		st.setups = append(st.setups, (tParse + tBuild + tNew).Seconds())
	}
}

// finish tries up to minScenarios more scenarios if the slices ran
// fewer, and reports the plane's metrics.
func (p *fleetPlane) finish(rep *report) error {
	for tried := 0; p.st.scenarios < minScenarios && tried < minScenarios; tried++ {
		p.runScenarios(&p.st, 0, p.tr, rep)
	}
	st := &p.st
	rep.e2e["fleet_node_s_per_s"] = median(st.rates)
	rep.layer["scenario.parse_ms"] = median(st.parseMs)
	rep.layer["scenario.build_ms"] = median(st.buildMs)
	rep.layer["fleet.new_ms"] = median(st.newMs)
	rep.layer["fleet.run_ms"] = median(st.rMs)
	rep.layer["fleet.events"] = float64(st.firstEvents)
	rep.layer["fleet.chaos_events"] = float64(st.firstChaos)
	if st.events > 0 {
		rep.layer["fleet.ns_per_event"] = float64(st.run.Nanoseconds()) / float64(st.events)
	}
	rep.setups[planeFleet], rep.runtime[planeFleet] = median(st.setups), st.meter.cost()
	if p.base.scenarios > 0 {
		rep.overhead[planeFleet] = overheadPct(p.base.nodeSeconds/p.base.run.Seconds(), st.nodeSeconds/st.run.Seconds())
	}
	return nil
}

func (p *fleetPlane) close() {}

package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/stats"
)

// relTol is the tolerance of a served value against the direct
// library call, relative to the value: the 1e-9 the serve tests pin,
// scaled so that it holds for service times far from one second.
const relTol = 1e-9

func near(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

// analysis returns the model analysis of (workload, mix), memoized:
// the serve plane precomputes every pair it draws before timing.
func (e *env) analysis(wl, mix string) (*energyprop.Analysis, error) {
	key := wl + "|" + mix
	if a, ok := e.analyses[key]; ok {
		return a, nil
	}
	cfg, err := cli.ParseMix(e.catalog, mix, 0, 0)
	if err != nil {
		return nil, err
	}
	a, err := energyprop.Analyze(cfg, e.profiles[wl], model.Options{}, 200)
	if err != nil {
		return nil, err
	}
	e.analyses[key] = a
	return a, nil
}

// pctResult is a direct percentile evaluation.
type pctResult struct {
	serviceTime, meanWait, meanResp float64
	waits, resps                    []float64
}

// directPct evaluates one percentile item through the queueing library
// the way epserve does: Spec.Build at (u, service time), then the
// batched wait and response percentiles.
func (e *env) directPct(it pctItem) (pctResult, error) {
	st := it.d
	if it.mix != "" {
		a, err := e.analysis(it.wl, it.mix)
		if err != nil {
			return pctResult{}, err
		}
		st = float64(a.Result.Time)
	}
	k, err := it.spec.Build(it.u, st)
	if err != nil {
		return pctResult{}, err
	}
	ctx := context.Background()
	waits, err := k.WaitPercentilesContext(ctx, it.ps)
	if err != nil {
		return pctResult{}, err
	}
	resps, err := k.ResponsePercentilesContext(ctx, it.ps)
	if err != nil {
		return pctResult{}, err
	}
	return pctResult{serviceTime: st, meanWait: k.MeanWait(), meanResp: k.MeanResponse(), waits: waits, resps: resps}, nil
}

// directEp evaluates one EP-metrics item through energyprop.
func (e *env) directEp(it epItem) (serve.EPMetricsResponse, error) {
	cfg, err := cli.ParseMix(e.catalog, it.mix, 0, 0)
	if err != nil {
		return serve.EPMetricsResponse{}, err
	}
	a, err := energyprop.Analyze(cfg, e.profiles[it.wl], model.Options{}, 200)
	if err != nil {
		return serve.EPMetricsResponse{}, err
	}
	m := a.Metrics()
	out := serve.EPMetricsResponse{
		TimeSeconds: float64(a.Result.Time), EnergyJoules: float64(a.Result.Energy),
		Metrics: serve.MetricsBlock{DPR: m.DPR, IPR: m.IPR, EPM: m.EPM, LDR: m.LDR, ChordLDR: m.ChordLDR},
	}
	if it.ref != "" {
		rcfg, err := cli.ParseMix(e.catalog, it.ref, 0, 0)
		if err != nil {
			return serve.EPMetricsResponse{}, err
		}
		ra, err := energyprop.Analyze(rcfg, e.profiles[it.wl], model.Options{}, 200)
		if err != nil {
			return serve.EPMetricsResponse{}, err
		}
		ref := energyprop.Reference{PeakPower: float64(ra.Result.BusyPower)}
		lo, hi, sub := ref.SublinearRange(a.CurveRes, stats.Linspace(0.05, 1, 96))
		out.Reference = &serve.ReferenceBlock{Sublinear: sub}
		if sub {
			out.Reference.SublinearFromU, out.Reference.SublinearToU = lo, hi
		}
	}
	return out, nil
}

// checkPct compares one served percentile result with the direct call.
func (e *env) checkPct(it pctItem, got *serve.PercentilesResponse) error {
	if got == nil {
		return fmt.Errorf("no result for %+v", it)
	}
	want, err := e.directPct(it)
	if err != nil {
		return fmt.Errorf("direct call: %w", err)
	}
	if len(got.Percentiles) != len(it.ps) {
		return fmt.Errorf("%d percentiles, want %d", len(got.Percentiles), len(it.ps))
	}
	ok := got.Utilization == it.u && near(got.ServiceTimeSeconds, want.serviceTime) &&
		near(got.MeanWaitSeconds, want.meanWait) && near(got.MeanResponseSeconds, want.meanResp)
	for i, p := range got.Percentiles {
		ok = ok && p.P == it.ps[i] && near(p.WaitSeconds, want.waits[i]) && near(p.ResponseSeconds, want.resps[i])
	}
	if !ok {
		return fmt.Errorf("served %+v differs from direct %+v", *got, want)
	}
	return nil
}

// checkResponse compares a served response body with direct library
// calls on the same inputs.
func (e *env) checkResponse(r *request, body []byte) error {
	switch r.route {
	case routePctGet:
		var got serve.PercentilesResponse
		if err := decode(body, &got); err != nil {
			return err
		}
		return e.checkPct(r.pcts[0], &got)
	case routePctBatch:
		var got serve.PercentilesBatchResponse
		if err := decode(body, &got); err != nil {
			return err
		}
		if got.Errors != 0 || len(got.Results) != len(r.pcts) {
			return fmt.Errorf("batch: %d errors, %d results for %d items", got.Errors, len(got.Results), len(r.pcts))
		}
		for i, res := range got.Results {
			if err := e.checkPct(r.pcts[i], res.Result); err != nil {
				return fmt.Errorf("item %d: %w", i, err)
			}
		}
		return nil
	case routeEp:
		var got serve.EPMetricsResponse
		if err := decode(body, &got); err != nil {
			return err
		}
		want, err := e.directEp(*r.ep)
		if err != nil {
			return fmt.Errorf("direct call: %w", err)
		}
		ok := near(got.TimeSeconds, want.TimeSeconds) && near(got.EnergyJoules, want.EnergyJoules) &&
			near(got.Metrics.DPR, want.Metrics.DPR) && near(got.Metrics.IPR, want.Metrics.IPR) &&
			near(got.Metrics.EPM, want.Metrics.EPM) && near(got.Metrics.LDR, want.Metrics.LDR) &&
			near(got.Metrics.ChordLDR, want.Metrics.ChordLDR) &&
			(got.Reference == nil) == (want.Reference == nil)
		if ok && want.Reference != nil {
			ok = got.Reference.Sublinear == want.Reference.Sublinear &&
				near(got.Reference.SublinearFromU, want.Reference.SublinearFromU) &&
				near(got.Reference.SublinearToU, want.Reference.SublinearToU)
		}
		if !ok {
			return fmt.Errorf("served %+v differs from direct %+v", got, want)
		}
		return nil
	case routeFrontier:
		var got serve.FrontierResponse
		if err := decode(body, &got); err != nil {
			return err
		}
		limits := []cluster.Limit{
			{Type: e.a9, MaxNodes: r.fr.maxA9, FixCoresAndFreq: true},
			{Type: e.k10, MaxNodes: r.fr.maxK10, FixCoresAndFreq: true},
		}
		want, err := pareto.FrontierSweep(limits, e.profiles[r.fr.wl], model.Options{}, pareto.SweepOptions{NoPrune: true})
		if err != nil {
			return fmt.Errorf("direct sweep: %w", err)
		}
		if got.Explored != cluster.SpaceSize(limits) || len(got.Frontier) != len(want) {
			return fmt.Errorf("served %d explored, %d points; want %d, %d",
				got.Explored, len(got.Frontier), cluster.SpaceSize(limits), len(want))
		}
		for i, p := range want {
			g := got.Frontier[i]
			if g.Mix != p.Config.String() || g.TimeSeconds != float64(p.Time) || g.EnergyJoules != float64(p.Energy) {
				return fmt.Errorf("frontier point %d: served %+v, want %s %g s %g J", i, g, p.Config, p.Time, p.Energy)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown route %q", r.route)
}

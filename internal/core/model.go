package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/markov"
	"repro/internal/mva"
)

// SolveModel runs the model stage of the Section 4 pipeline over
// characterized tiers — the one path both Run and cross-validation take
// from characterizations to model columns. It fits a MAP(2) per tier
// (FitPlan; the memo, nil for a cold run, also serves the population
// sweeps), then runs the analytical solvers sc requests over
// sc.Populations: decomp, map with its MVA baseline, bounds. It fills
// rep.Tiers and, per population, the MAP, MVA, Decomp, DecompError and
// Bounds columns of rep.Results, which must hold one entry per
// population. Tier i visits sc.Tiers[i].Visits times per cycle (once
// when unset or when sc declares no tiers); popts supplies the planner
// options and the resolved tier names.
//
// A failed exact solve that a cheaper tier can still answer (see
// SolveFallbackReason) degrades the report instead of failing it, down
// the chain exact -> decomp -> bounds: rep.Degraded is set,
// rep.FallbackReason says why and records each hop, the decomp columns
// stand in for the exact ones — solved under parent, since ctx's own
// deadline may have expired — and only when the decomposition also
// fails are the Bounds columns filled. The MVA baseline still runs when
// requested.
//
// enter, when non-nil, is called at the entry of the fit and solve
// stages (fault injection); a non-nil return aborts the stage. Errors
// are tagged with the stage they failed in (MarkStage).
func SolveModel(ctx, parent context.Context, sc Scenario, chars []inference.Characterization, popts PlannerOptions, memo *Memo, enter func(stage string) error, rep *Report) error {
	if enter == nil {
		enter = func(string) error { return nil }
	}
	if err := enter(StageFit); err != nil {
		return err
	}
	plan, err := FitPlan(chars, sc.ThinkTime, popts, memo)
	if err != nil {
		return MarkStage(err, StageFit)
	}
	for i, spec := range sc.Tiers {
		if spec.Visits > 0 {
			plan.Tiers[i].Visits = spec.Visits
		}
	}
	rep.Tiers = plan.tierReports()

	pops := sc.Populations
	emit := func(ev ProgressEvent) {
		if sc.OnProgress != nil {
			sc.OnProgress(ev)
		}
	}
	progress := func(idx, pop int, _ mapqn.NetworkMetrics) {
		emit(ProgressEvent{Stage: StageSolve, Population: pop, Step: idx + 1, Total: len(pops)})
	}
	decomp := func(ctx context.Context) error {
		mets, err := memoSweep(ctx, memo, solveKey(SolverDecomp, plan, pops, plan.DecompOptions()), func() ([]mapqn.NetworkMetrics, error) {
			return plan.PredictDecompCtx(ctx, pops, progress)
		})
		for i := range mets {
			m := mets[i]
			rep.Results[i].Decomp = &m
		}
		return err
	}

	if sc.Wants(SolverDecomp) || sc.Wants(SolverMAP) {
		if err := enter(StageSolve); err != nil {
			return err
		}
	}
	if sc.Wants(SolverDecomp) {
		if err := decomp(ctx); err != nil {
			return MarkStage(err, StageSolve)
		}
	}
	wantBounds := sc.Wants(SolverBounds)
	switch {
	case sc.Wants(SolverMAP):
		preds, err := memoSweep(ctx, memo, solveKey(SolverMAP, plan, pops, popts.Solver), func() ([]PredictionN, error) {
			return plan.PredictCtx(ctx, pops, progress)
		})
		if err == nil {
			for i := range preds {
				p := preds[i]
				res := &rep.Results[i]
				res.MAP = &p.MAP
				if sc.Wants(SolverMVA) {
					res.MVA = &p.MVA
				}
				if d := res.Decomp; d != nil && p.MAP.Throughput > 0 {
					res.DecompError = math.Abs(d.Throughput-p.MAP.Throughput) / p.MAP.Throughput
				}
			}
			break
		}
		reason, ok := SolveFallbackReason(parent, err)
		if !ok {
			return MarkStage(err, StageSolve)
		}
		rep.Degraded = true
		if sc.Wants(SolverDecomp) {
			rep.FallbackReason = reason + "; the decomp approximation stands in for the exact columns"
		} else if derr := decomp(parent); derr == nil {
			rep.FallbackReason = reason + "; decomp approximation reported instead"
		} else if parent.Err() != nil {
			return MarkStage(derr, StageSolve)
		} else {
			rep.FallbackReason = fmt.Sprintf("%s; decomp fallback also failed (%v); NetworkBounds reported instead", reason, derr)
			wantBounds = true
		}
		if sc.Wants(SolverMVA) {
			if err := rep.SolveMVA(plan.Baseline()); err != nil {
				return MarkStage(err, StageSolve)
			}
		}
	case sc.Wants(SolverMVA):
		if err := rep.SolveMVA(plan.Baseline()); err != nil {
			return MarkStage(err, StageSolve)
		}
	}
	if wantBounds {
		bounds, err := plan.Bounds(pops)
		if err != nil {
			return MarkStage(err, StageBounds)
		}
		for i := range bounds {
			b := bounds[i]
			rep.Results[i].Bounds = &b
			emit(ProgressEvent{Stage: StageBounds, Population: b.Customers, Step: i + 1, Total: len(bounds)})
		}
	}
	return nil
}

// SolveMVA fills every population's MVA column from the product-form
// network net.
func (r *Report) SolveMVA(net mva.Network) error {
	for i := range r.Results {
		n := r.Results[i].Population
		res, err := mva.Solve(net, n)
		if err != nil {
			return fmt.Errorf("core: MVA at %d EBs: %w", n, err)
		}
		r.Results[i].MVA = &res
	}
	return nil
}

// memoSweep runs one population sweep through the memo's solve family,
// retrying once on a stale cancellation: a concurrent cell sharing the
// key may have had its own deadline expire mid-compute, failing every
// waiter with an error that describes the sibling's context, not ctx.
// The memo drops cancellation-class results, so the retry recomputes
// under ctx. Memoized sweeps replay no per-population progress; their
// results are bit-identical to a cold sweep.
func memoSweep[T any](ctx context.Context, memo *Memo, key any, sweep func() (T, error)) (T, error) {
	v, err := Memoize(memo, MemoSolve, key, sweep)
	if err != nil && IsCancellation(err) && ctx.Err() == nil {
		return Memoize(memo, MemoSolve, key, sweep)
	}
	return v, err
}

// solveKey is the memo identity of one population sweep of plan: the
// solver kind, the full model (tier characterizations, names and
// visits, think time, fit options), the populations, and the kind's own
// options (ctmc.Options for the exact sweep, mapqn.DecompOptions for
// the decomposition), so exact and decomp sweeps of one model never
// collide in the shared solve family.
func solveKey(kind SolverKind, plan *PlanN, populations []int, opts any) any {
	type tierKey struct {
		Name   string                     `json:"name"`
		Char   inference.Characterization `json:"char"`
		Visits float64                    `json:"visits"`
	}
	tiers := make([]tierKey, len(plan.Tiers))
	for i, t := range plan.Tiers {
		tiers[i] = tierKey{Name: t.Name, Char: t.Characterization, Visits: t.Visits}
	}
	return struct {
		Solver      SolverKind        `json:"solver"`
		Tiers       []tierKey         `json:"tiers"`
		ThinkTime   float64           `json:"think_time"`
		Populations []int             `json:"populations"`
		Fit         markov.FitOptions `json:"fit"`
		Options     any               `json:"options"`
	}{kind, tiers, plan.ThinkTime, populations, plan.opts.Fit, opts}
}

// tierReports summarizes the plan's tiers for a report.
func (p *PlanN) tierReports() []TierReport {
	out := make([]TierReport, len(p.Tiers))
	for i, t := range p.Tiers {
		out[i] = TierReport{
			Name:             t.Name,
			Characterization: t.Characterization,
			Demand:           t.Demand(),
			FitSCV:           t.Fit.SCV,
			FitGamma:         t.Fit.Gamma,
			AchievedI:        t.Fit.AchievedI,
			AchievedP95:      t.Fit.AchievedP95,
		}
	}
	return out
}

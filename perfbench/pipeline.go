package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/markov"
	"repro/internal/mva"
)

// cellOutput holds what one recomposed cell produced, per population.
type cellOutput struct {
	mapX, decompX, mvaX []float64
	lowerX, upperX      []float64
}

// solveCell runs one explicit-tier scenario through the model layers by
// calling their entry points directly, in the order the facade's
// scenario pipeline composes them: a MAP(2) fit per tier, the plan, the
// decomp sweep, the exact sweep with its MVA baseline, and the bounds.
// Each call is wrapped in a span of its layer; the exact and decomp
// sweeps get one child span per population from their progress
// callbacks. A failed decomp sweep fails the cell, as in the facade.
func solveCell(ctx context.Context, sc core.Scenario, cell string, tr *tracer, c counters) (*cellOutput, error) {
	sc = sc.WithDefaults()
	var popts core.PlannerOptions
	if sc.Planner != nil {
		popts = *sc.Planner
	}
	names := core.DefaultTierNames(len(sc.Tiers))
	if len(popts.TierNames) == len(names) {
		copy(names, popts.TierNames)
	}
	tiers := make([]core.Tier, len(sc.Tiers))
	for i, spec := range sc.Tiers {
		if spec.Name != "" {
			names[i] = spec.Name
		}
		ix := spec.IndexOfDispersion
		if ix == 0 {
			ix = 1
		}
		char := inference.Characterization{MeanServiceTime: spec.Mean, IndexOfDispersion: ix, P95ServiceTime: spec.P95, Converged: true}
		end := tr.begin("markov.fit", "markov", cell)
		fit, err := markov.FitThreePoint(char.MeanServiceTime, char.IndexOfDispersion, char.P95ServiceTime, popts.Fit)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s MAP fit: %w", names[i], err)
		}
		visits := 1.0
		if spec.Visits > 0 {
			visits = spec.Visits
		}
		tiers[i] = core.Tier{Name: names[i], Characterization: char, Fit: fit, Visits: visits}
	}
	popts.TierNames = names
	end := tr.begin("core.plan", "core", cell)
	plan, err := core.NewPlanN(tiers, sc.ThinkTime, popts)
	end()
	if err != nil {
		return nil, err
	}
	stations, pops := plan.Stations(), sc.Populations
	out := &cellOutput{}

	if sc.Wants(core.SolverDecomp) {
		mets, err := tracedSweep(tr, c, "mapqn.decomp", cell, func(progress mapqn.SweepProgress) ([]mapqn.NetworkMetrics, error) {
			return mapqn.SolveNetworkDecompSweepCtx(ctx, stations, sc.ThinkTime, pops, plan.DecompOptions(), progress)
		})
		if err != nil {
			c["mapqn.decomp_failed"]++
			return nil, fmt.Errorf("decomp: %w", err)
		}
		for _, m := range mets {
			out.decompX = append(out.decompX, m.Throughput)
			c["mapqn.decomp_iterations"] += float64(m.SolverIterations)
		}
	}
	if sc.Wants(core.SolverMAP) {
		mets, err := tracedSweep(tr, c, "mapqn.exact", cell, func(progress mapqn.SweepProgress) ([]mapqn.NetworkMetrics, error) {
			return mapqn.SolveNetworkSweepCtx(ctx, stations, sc.ThinkTime, pops, popts.Solver, progress)
		})
		if err != nil {
			return nil, fmt.Errorf("exact: %w", err)
		}
		for _, m := range mets {
			out.mapX = append(out.mapX, m.Throughput)
			c["mapqn.exact_states"] += float64(m.States)
			c["mapqn.exact_iterations"] += float64(m.SolverIterations)
			c["mapqn.exact_state_iters"] += float64(m.States) * float64(m.SolverIterations)
		}
	}
	// The exact sweep always solves its MVA baseline; the report carries
	// it only when mva is requested.
	if sc.Wants(core.SolverMAP) || sc.Wants(core.SolverMVA) {
		end := tr.begin("mva.solve", "mva", cell)
		baseline := plan.Baseline()
		for _, n := range pops {
			res, err := mva.Solve(baseline, n)
			if err != nil {
				end()
				return nil, fmt.Errorf("mva at %d: %w", n, err)
			}
			if sc.Wants(core.SolverMVA) {
				out.mvaX = append(out.mvaX, res.Throughput)
			}
		}
		end()
	}
	if sc.Wants(core.SolverBounds) {
		end := tr.begin("mapqn.bounds", "mapqn.bounds", cell)
		bounds, err := mapqn.NetworkBoundsSweep(stations, sc.ThinkTime, pops)
		end()
		if err != nil {
			return nil, fmt.Errorf("bounds: %w", err)
		}
		for _, b := range bounds {
			out.lowerX = append(out.lowerX, b.LowerX)
			out.upperX = append(out.upperX, b.UpperX)
		}
	}
	return out, nil
}

// tracedSweep runs a population sweep inside a span of the given layer,
// with one child span per population, and adds the bytes it allocated
// to the layer's alloc counter. Untraced (tr nil), it only runs the
// sweep.
func tracedSweep(tr *tracer, c counters, layer, cell string, sweep func(mapqn.SweepProgress) ([]mapqn.NetworkMetrics, error)) ([]mapqn.NetworkMetrics, error) {
	if tr == nil {
		return sweep(nil)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := tr.begin(layer, layer, cell)
	last := time.Now()
	mets, err := sweep(func(_, pop int, _ mapqn.NetworkMetrics) {
		now := time.Now()
		tr.add(fmt.Sprintf("%s N=%d", layer, pop), layer, cell, last, now)
		last = now
	})
	end()
	runtime.ReadMemStats(&m1)
	c[layer+"_alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	return mets, err
}

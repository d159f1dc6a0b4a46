package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	burst "repro"
	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/markov"
	"repro/internal/mva"
	"repro/internal/tpcw"
)

// measureLoop is the paper's loop through the facade's crossvalidate
// solver: simulate the K=2 shopping-mix testbed (2 replicas on 2
// workers), characterize the tiers from the simulated monitoring
// streams, fit, solve, and compare with the simulation. Its operations
// are the loop's populations.
type measureLoop struct {
	seed int64
	base core.Scenario
	warm *core.Report // the warm-up pass; measured pass 0 repeats its seed
}

func newMeasureLoop(seed int64) *measureLoop { return &measureLoop{seed: seed} }

// passSeed derives the simulation seed of pass i from the run's seed.
// The warm-up pass and measured pass 0 share one seed, so their results
// must be identical.
func (w *measureLoop) passSeed(i int) int64 { return w.seed*1000 + int64(i) }

func (w *measureLoop) scenario(i int) core.Scenario {
	sc := w.base
	wl := *sc.Workload
	wl.Seed = w.passSeed(i)
	sc.Workload = &wl
	return sc
}

func (w *measureLoop) prepare(context.Context) error {
	sc := core.Scenario{
		Name:        "measure-loop",
		ThinkTime:   0.5,
		Populations: []int{20, 40},
		Workload: &core.WorkloadSpec{
			Mix: "shopping", Tiers: 2, Duration: 3600, Warmup: 60, Cooldown: 30,
			Replicas: 2, Workers: 2,
		},
		Solvers: []core.SolverKind{core.SolverCrossValidate},
		Planner: &core.PlannerOptions{},
	}
	sc.Planner.Solver.Tol = 1e-8
	w.base = sc.WithDefaults()
	return w.scenario(0).Validate()
}

// runFacade runs pass i through burst.Run, timing each population from
// the previous population's validation (or the pass start) to its own.
func (w *measureLoop) runFacade(ctx context.Context, i int) (*core.Report, []opLatency, error) {
	sc := w.scenario(i)
	var lat []opLatency
	last := time.Now()
	sc.OnProgress = func(ev core.ProgressEvent) {
		if ev.Stage == core.StageValidate {
			now := time.Now()
			lat = append(lat, opLatency{fmt.Sprint(ev.Population), now.Sub(last)})
			last = now
		}
	}
	rep, err := burst.Run(ctx, sc)
	return rep, lat, err
}

func (w *measureLoop) warmup(ctx context.Context) error {
	rep, _, err := w.runFacade(ctx, 0)
	if err != nil {
		return err
	}
	w.warm = rep
	return nil
}

func (w *measureLoop) pass(ctx context.Context, i int) (passResult, error) {
	var pr passResult
	var rep *core.Report
	var err error
	pr.timed(func() { rep, pr.opLat, err = w.runFacade(ctx, i) })
	if err != nil {
		return passResult{}, err
	}
	for k, res := range rep.Results {
		pr.ops++
		v := res.Validation
		if v == nil || v.Degraded || v.SimThroughput.Mean <= 0 {
			pr.failed++
			pr.problemf("N=%d: no exact cross-validation", res.Population)
			continue
		}
		pr.ok++
		pr.xErr = math.Max(pr.xErr, relErr(v.MAPThroughput, v.SimThroughput.Mean))
		if i == 0 {
			// Same seed as the warm-up pass: the loop must reproduce it.
			wv := w.warm.Results[k].Validation
			if v.SimThroughput.Mean != wv.SimThroughput.Mean || v.MAPThroughput != wv.MAPThroughput {
				pr.problemf("N=%d: seed %d gave sim X %v / MAP X %v, the warm-up pass %v / %v",
					res.Population, w.passSeed(0), v.SimThroughput.Mean, v.MAPThroughput, wv.SimThroughput.Mean, wv.MAPThroughput)
			}
		}
	}
	return pr, nil
}

// layered recomposes the warm-up pass from the layers' entry points —
// tpcw.RunReplicasCtx, inference.CharacterizeAll, markov.FitThreePoint,
// core.NewPlanN, mapqn.SolveNetworkSweepCtx and mva.Solve — one
// population at a time, and checks its throughputs bit for bit against
// the facade's. The per-class columns crossvalidate adds are not
// recomposed.
func (w *measureLoop) layered(ctx context.Context, tr *tracer, c counters) (passResult, error) {
	sc := w.scenario(0)
	wl := sc.Workload
	mix, err := mixByName(wl.Mix)
	if err != nil {
		return passResult{}, err
	}
	tiers, err := tpcw.DefaultTiers(mix, wl.Tiers)
	if err != nil {
		return passResult{}, err
	}
	popts := *sc.Planner
	var pr passResult
	for k, n := range sc.Populations {
		pr.ops++
		id := fmt.Sprintf("N=%d", n)
		end := tr.begin("core.cell", "core", id)
		simX, mapX, mvaX, err := w.layeredPopulation(ctx, tr, c, id, popts, tpcw.ConfigN{
			Mix: mix, Tiers: tiers, EBs: n, ThinkTime: sc.ThinkTime,
			Duration: wl.Duration, Warmup: wl.Warmup, Cooldown: wl.Cooldown,
			MonitorPeriod: wl.MonitorPeriod, Seed: wl.Seed, StructureWeight: wl.StructureWeight,
		})
		end()
		if err != nil {
			if ctx.Err() != nil {
				return pr, ctx.Err()
			}
			pr.failed++
			pr.problemf("%s: %v", id, err)
			continue
		}
		pr.ok++
		v := w.warm.Results[k].Validation
		if simX != v.SimThroughput.Mean || mapX != v.MAPThroughput || mvaX != v.MVAThroughput {
			pr.problemf("%s: traced loop gave sim/MAP/MVA X %v/%v/%v, burst.Run %v/%v/%v",
				id, simX, mapX, mvaX, v.SimThroughput.Mean, v.MAPThroughput, v.MVAThroughput)
		}
	}
	return pr, nil
}

func (w *measureLoop) layeredPopulation(ctx context.Context, tr *tracer, c counters, id string, popts core.PlannerOptions, cfg tpcw.ConfigN) (simX, mapX, mvaX float64, err error) {
	wl := w.base.Workload
	end := tr.begin("tpcw.replicas", "tpcw", id)
	rr, err := tpcw.RunReplicasCtx(ctx, cfg, wl.Replicas, wl.Workers, nil)
	end()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, res := range rr.Results {
		c["tpcw.txn"] += float64(res.Completed)
	}

	end = tr.begin("inference.characterize", "inference", id)
	chars, err := inference.CharacterizeAll(rr.TierSamples, popts.Inference)
	end()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, s := range rr.TierSamples {
		c["inference.samples"] += float64(len(s.Utilization))
	}

	names := rr.TierNames
	if len(popts.TierNames) > 0 {
		names = popts.TierNames
	}
	planTiers := make([]core.Tier, len(chars))
	for i, ch := range chars {
		end := tr.begin("markov.fit", "markov", id)
		fit, err := markov.FitThreePoint(ch.MeanServiceTime, ch.IndexOfDispersion, ch.P95ServiceTime, popts.Fit)
		end()
		if err != nil {
			return 0, 0, 0, err
		}
		planTiers[i] = core.Tier{Name: names[i], Characterization: ch, Fit: fit, Visits: 1}
	}
	popts.TierNames = names
	end = tr.begin("core.plan", "core", id)
	plan, err := core.NewPlanN(planTiers, cfg.ThinkTime, popts)
	end()
	if err != nil {
		return 0, 0, 0, err
	}

	mets, err := tracedSweep(tr, c, "mapqn.exact", id, func(progress mapqn.SweepProgress) ([]mapqn.NetworkMetrics, error) {
		return mapqn.SolveNetworkSweepCtx(ctx, plan.Stations(), cfg.ThinkTime, []int{cfg.EBs}, popts.Solver, progress)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	m := mets[0]
	c["mapqn.exact_states"] += float64(m.States)
	c["mapqn.exact_iterations"] += float64(m.SolverIterations)
	c["mapqn.exact_state_iters"] += float64(m.States) * float64(m.SolverIterations)

	end = tr.begin("mva.solve", "mva", id)
	base, err := mva.Solve(plan.Baseline(), cfg.EBs)
	end()
	if err != nil {
		return 0, 0, 0, err
	}
	return rr.Throughput.Mean, m.Throughput, base.Throughput, nil
}

func mixByName(name string) (tpcw.Mix, error) {
	switch name {
	case "browsing":
		return tpcw.BrowsingMix(), nil
	case "shopping":
		return tpcw.ShoppingMix(), nil
	case "ordering":
		return tpcw.OrderingMix(), nil
	}
	return tpcw.Mix{}, errors.New("unknown mix " + name)
}

func (w *measureLoop) close() error { return nil }

package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tpcw"
)

// Suite-level Scale overrides: every testbed configuration in this
// package derives from a Scale in exactly one place — the measurement
// sweeps through a suite base workload (measurementSuite), the
// remaining single runs through the config/fitConfig helpers — instead
// of each figure plumbing Quick/Full durations into its own
// tpcw.ConfigN literals.

// config materializes the Scale as a testbed run configuration at the
// measurement duration; runTwoTier supplies the tiers.
func (s Scale) config(mix tpcw.Mix, ebs int, seed int64) tpcw.ConfigN {
	return tpcw.ConfigN{
		Mix: mix, EBs: ebs, Seed: seed,
		Duration: s.SimDuration, Warmup: s.SimWarmup, Cooldown: s.SimCooldown,
	}
}

// fitConfig is config at the Zestim fitting duration and think time —
// the Section 4.2 parameter-estimation runs.
func (s Scale) fitConfig(mix tpcw.Mix, zEstim float64, ebs int, seed int64) tpcw.ConfigN {
	cfg := s.config(mix, ebs, seed)
	cfg.ThinkTime = zEstim
	cfg.Duration = s.FitDuration
	return cfg
}

// runTwoTier runs cfg on the paper's front+DB testbed:
// DefaultTiers(cfg.Mix, 2), with the mix's contention environments.
func runTwoTier(ctx context.Context, cfg tpcw.ConfigN) (*tpcw.ResultN, error) {
	tiers, err := tpcw.DefaultTiers(cfg.Mix, 2)
	if err != nil {
		return nil, err
	}
	cfg.Tiers = tiers
	return tpcw.RunNCtx(ctx, cfg)
}

// workload materializes the Scale as a suite base workload: one
// single-run two-tier testbed cell at the measurement duration.
func (s Scale) workload(seed int64) *core.WorkloadSpec {
	return &core.WorkloadSpec{
		Tiers: 2, Replicas: 1, Seed: seed,
		Duration: s.SimDuration, Warmup: s.SimWarmup, Cooldown: s.SimCooldown,
	}
}

// standardMixNames lists the paper's three mixes in table order.
func standardMixNames() []string {
	mixes := tpcw.StandardMixes()
	names := make([]string, len(mixes))
	for i, m := range mixes {
		names[i] = m.Name
	}
	return names
}

// measurementSuite declares a mixes × populations measurement sweep on
// the simulated testbed: one single-run cell per (mix, N), populations
// varying fastest — the order the paper's tables are printed in. The
// suite engine supplies the orchestration the figures used to hand-roll:
// deterministic expansion, a worker pool, and cell-ordered results.
func measurementSuite(name string, scale Scale, mixes []string, thinkTime float64, populations []int, seed int64) core.Suite {
	pops := make([][]int, len(populations))
	for i, n := range populations {
		pops[i] = []int{n}
	}
	return core.Suite{
		Name: name,
		Base: core.Scenario{
			ThinkTime: thinkTime,
			Workload:  scale.workload(seed),
			Solvers:   []core.SolverKind{core.SolverSim},
		},
		Grid: core.Grid{Mixes: mixes, Populations: pops},
	}
}

// measureRunner executes one measurement cell as a single two-tier
// testbed run, reproducing the pre-suite sweeps bit for bit:
// the run's seed is the cell's workload seed plus seedStep times its
// population — the per-population seed schedule the original loops
// used (1 for Figure 4, 13 for the accuracy sweeps).
func measureRunner(seedStep int64) core.CellRunner {
	return func(ctx context.Context, cell core.SuiteCell) (*core.Report, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc := cell.Scenario
		wl := sc.Workload
		mix, err := tpcw.MixByName(wl.Mix)
		if err != nil {
			return nil, err
		}
		n := sc.Populations[0]
		res, err := runTwoTier(ctx, tpcw.ConfigN{
			Mix: mix, EBs: n, ThinkTime: sc.ThinkTime,
			Seed:     wl.Seed + int64(n)*seedStep,
			Duration: wl.Duration, Warmup: wl.Warmup, Cooldown: wl.Cooldown,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: measuring %s at %d EBs: %w", mix.Name, n, err)
		}
		return &core.Report{
			Scenario: sc,
			Results: []core.PopulationReport{{
				Population: n,
				Sim: &core.SimPoint{
					Replicas:     1,
					Throughput:   stats.Interval{Mean: res.Throughput},
					MeanResponse: stats.Interval{Mean: res.MeanResponse},
					P95Response:  stats.Interval{Mean: res.P95Response},
					TierUtil: []stats.Interval{
						{Mean: res.AvgUtil[0]}, {Mean: res.AvgUtil[1]},
					},
					TierNames: res.TierNames,
				},
			}},
		}, nil
	}
}

// runMeasurement expands and executes a measurement suite, returning
// its rows in expansion order (mix-major, population-minor).
func runMeasurement(suite core.Suite, seedStep int64) (*core.SuiteReport, error) {
	return core.RunSuite(context.Background(), suite, measureRunner(seedStep))
}

// measuredThroughputs extracts per-cell simulated throughput in
// expansion order.
func measuredThroughputs(rep *core.SuiteReport) []float64 {
	out := make([]float64, len(rep.Rows))
	for i, row := range rep.Rows {
		out[i] = row.Report.Results[0].Sim.Throughput.Mean
	}
	return out
}

package validate

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/tpcw"
)

// TestCrossValidationThreeTier closes the paper's loop for K=3: simulate
// a three-tier testbed (front, app, db) with three replicas, characterize
// every tier from the simulated coarse samples only, fit MAP(2)s, solve
// the exact 3-station MAP network, and compare. Tolerance: the MAP model
// must predict throughput within 15% of the simulated mean and every
// tier's utilization within 10 points — the accuracy band the paper
// reports for its two-tier validation (Section 4.2), with margin for the
// short CI-sized runs used here.
func TestCrossValidationThreeTier(t *testing.T) {
	if testing.Short() {
		t.Skip("CTMC cross-validation is expensive under -short/-race; run via make xvalidate or the full suite")
	}
	tiers, err := tpcw.DefaultTiers(tpcw.OrderingMix(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tpcw.ConfigN{
		Mix: tpcw.OrderingMix(), Tiers: tiers,
		EBs: 30, Seed: 7,
		Duration: 900, Warmup: 60, Cooldown: 30,
	}
	rep, err := CrossValidateCtx(context.Background(), cfg, Options{
		Replicas: 3,
		Planner:  core.PlannerOptions{Solver: ctmc.Options{Tol: 1e-8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sim X = %.2f ± %.2f tx/s; MAP %.2f (err %+.1f%%), MVA %.2f (err %+.1f%%), states %d",
		rep.SimThroughput.Mean, rep.SimThroughput.HalfWidth,
		rep.MAPThroughput, 100*rep.MAPError, rep.MVAThroughput, 100*rep.MVAError, rep.States)
	for _, tier := range rep.Tiers {
		t.Logf("tier %-5s sim U = %.3f ± %.3f; MAP %.3f (%+.3f), MVA %.3f (%+.3f); I = %.1f",
			tier.Name, tier.SimUtil.Mean, tier.SimUtil.HalfWidth,
			tier.MAPUtil, tier.MAPError, tier.MVAUtil, tier.MVAError,
			tier.Characterization.IndexOfDispersion)
	}
	if rep.Replicas != 3 || len(rep.Tiers) != 3 {
		t.Fatalf("report shape: %d replicas, %d tiers", rep.Replicas, len(rep.Tiers))
	}
	if rep.MAPError > 0.15 || rep.MAPError < -0.15 {
		t.Errorf("MAP throughput error %.1f%% exceeds the documented 15%% tolerance", 100*rep.MAPError)
	}
	for _, tier := range rep.Tiers {
		if tier.MAPError > 0.10 || tier.MAPError < -0.10 {
			t.Errorf("tier %s MAP utilization error %+.3f exceeds 0.10", tier.Name, tier.MAPError)
		}
	}
	if rep.States <= 0 {
		t.Error("report missing CTMC state count")
	}
}

package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/mva"
)

func TestFitPlanFromCharacterizations(t *testing.T) {
	chars := []inference.Characterization{
		validChar(0.005, 40, 0.02),
		validChar(0.006, 120, 0.04),
		validChar(0.004, 300, 0.03),
	}
	plan, err := FitPlan(chars, 0.5, PlannerOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tiers) != 3 {
		t.Fatalf("got %d tiers, want 3", len(plan.Tiers))
	}
	wantNames := []string{"front", "app", "db"}
	for i, tier := range plan.Tiers {
		if tier.Name != wantNames[i] {
			t.Errorf("tier %d name %q, want %q", i, tier.Name, wantNames[i])
		}
		if tier.Fit.MAP == nil {
			t.Fatalf("tier %d has no fitted MAP", i)
		}
		if math.Abs(tier.Fit.MAP.Mean()-chars[i].MeanServiceTime) > 1e-6 {
			t.Errorf("tier %d fitted mean %v, want %v", i, tier.Fit.MAP.Mean(), chars[i].MeanServiceTime)
		}
		if tier.Visits != 1 {
			t.Errorf("tier %d default visits %v, want 1", i, tier.Visits)
		}
	}
}

func TestBuildPlanNErrors(t *testing.T) {
	good := validChar(0.005, 40, 0.02)
	if _, err := FitPlan(nil, 0.5, PlannerOptions{}, nil); err == nil {
		t.Error("expected error for no tiers")
	}
	if _, err := FitPlan([]inference.Characterization{good}, 0, PlannerOptions{}, nil); err == nil {
		t.Error("expected error for zero think time")
	}
	bad := validChar(0, 40, 0.02)
	if _, err := FitPlan([]inference.Characterization{good, bad}, 0.5, PlannerOptions{}, nil); err == nil {
		t.Error("expected error for invalid characterization")
	}
	if _, err := FitPlan([]inference.Characterization{good, good}, 0.5,
		PlannerOptions{TierNames: []string{"only-one"}}, nil); err == nil {
		t.Error("expected error for name/tier count mismatch")
	}
}

// TestTwoTierPlanMatchesPlanN: the paper's two-tier plan is the K=2
// PlanN, so its columns are exactly the K=2 MAP-network sweep over the
// plan's stations and MVA over the two tiers' mean demands.
func TestTwoTierPlanMatchesPlanN(t *testing.T) {
	plan := twoTierPlan(t, validChar(0.006, 30, 0.025), validChar(0.004, 150, 0.03))
	pops := []int{5, 25}
	ctx := context.Background()
	preds, err := plan.PredictCtx(ctx, pops, nil)
	if err != nil {
		t.Fatal(err)
	}
	mets, err := mapqn.SolveNetworkSweepCtx(ctx, plan.Stations(), 0.5, pops, ctmc.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	demands := []float64{0.006, 0.004}
	for i, n := range pops {
		base, err := mva.Solve(mva.ModelN(demands, []string{"front", "db"}, 0.5), n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(preds[i].MAP, mets[i]) {
			t.Errorf("N=%d: plan MAP column differs from the K=2 network sweep", n)
		}
		if !reflect.DeepEqual(preds[i].MVA, base) {
			t.Errorf("N=%d: plan MVA column %+v, want %+v", n, preds[i].MVA, base)
		}
	}
}

func TestPlanNPredictThreeTier(t *testing.T) {
	plan, err := FitPlan([]inference.Characterization{
		validChar(0.004, 20, 0.015),
		validChar(0.006, 150, 0.04), // bursty middle tier
		validChar(0.003, 10, 0.008),
	}, 0.5, PlannerOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := plan.PredictCtx(context.Background(), []int{1, 10, 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prevMAP, prevMVA := 0.0, 0.0
	for _, p := range preds {
		if len(p.MAP.Utils) != 3 || len(p.MVA.Utilizations) != 3 {
			t.Fatalf("per-station slices wrong length: %+v", p)
		}
		if p.MAP.Throughput < prevMAP || p.MVA.Throughput < prevMVA {
			t.Errorf("non-monotone throughput at %d EBs", p.EBs)
		}
		prevMAP, prevMVA = p.MAP.Throughput, p.MVA.Throughput
		// Burstiness can only hurt: the MAP model must not predict more
		// throughput than the product-form baseline.
		if p.MAP.Throughput > p.MVA.Throughput*1.01 {
			t.Errorf("%d EBs: MAP X %v exceeds MVA X %v", p.EBs, p.MAP.Throughput, p.MVA.Throughput)
		}
		// Conservation across three stations plus think pool.
		total := p.MAP.Thinking
		for _, q := range p.MAP.QueueLens {
			total += q
		}
		if math.Abs(total-float64(p.EBs)) > 1e-6*float64(p.EBs) {
			t.Errorf("%d EBs: conservation violated: %v", p.EBs, total)
		}
	}
	// Bounds bracket the exact solutions.
	bounds, err := plan.Bounds([]int{10, 30, 500})
	if err != nil {
		t.Fatal(err)
	}
	if preds[1].MAP.Throughput > bounds[0].UpperX*1.001 || preds[1].MAP.Throughput < bounds[0].LowerX*0.999 {
		t.Errorf("bounds [%v, %v] miss exact %v", bounds[0].LowerX, bounds[0].UpperX, preds[1].MAP.Throughput)
	}
	// Large-population bounds answer without a CTMC solve.
	if bounds[2].Customers != 500 || bounds[2].UpperX <= 0 {
		t.Errorf("large-population bounds invalid: %+v", bounds[2])
	}
}

func TestPlanNCompare(t *testing.T) {
	plan, err := FitPlan([]inference.Characterization{
		validChar(0.005, 5, 0.02),
		validChar(0.004, 5, 0.02),
		validChar(0.006, 5, 0.02),
	}, 0.5, PlannerOptions{TierNames: []string{"web", "cache", "db"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tiers[1].Name != "cache" {
		t.Errorf("explicit tier name not applied: %q", plan.Tiers[1].Name)
	}
	if _, err := plan.Compare([]int{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := plan.Compare([]int{1}, []float64{0}); err == nil {
		t.Error("expected error for zero measurement")
	}
	acc, err := plan.Compare([]int{5}, []float64{8})
	if err != nil {
		t.Fatal(err)
	}
	if acc[0].EBs != 5 || acc[0].Measured != 8 || acc[0].MAPPredicted <= 0 {
		t.Errorf("accuracy record wrong: %+v", acc[0])
	}
}

// TestLiteralPlanStillPredicts: a PlanN built from its exported fields
// (not via a constructor) predicts exactly like a built plan with default
// planner options.
func TestLiteralPlanStillPredicts(t *testing.T) {
	built := twoTierPlan(t, validChar(0.005, 40, 0.02), validChar(0.004, 60, 0.03))
	literal := &PlanN{Tiers: built.Tiers, ThinkTime: 0.5}
	ctx := context.Background()
	a, err := literal.PredictCtx(ctx, []int{10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := built.PredictCtx(ctx, []int{10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].MAP.Throughput != b[0].MAP.Throughput {
		t.Errorf("literal plan X %v != built plan X %v", a[0].MAP.Throughput, b[0].MAP.Throughput)
	}
	noMAP := &PlanN{Tiers: []Tier{{Name: "front", Visits: 1}, {Name: "db", Visits: 1}}, ThinkTime: 0.5}
	if _, err := noMAP.PredictCtx(ctx, []int{1}, nil); err == nil {
		t.Error("expected error for plan without fitted MAPs")
	}
	if _, err := (&PlanN{}).Compare([]int{1}, []float64{1}); err == nil {
		t.Error("expected error for zero-value plan")
	}
}

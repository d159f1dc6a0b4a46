package burst

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ctmc"
)

// TestFaultCrossValidationDegradesLikeRun pins the cross-validation row
// to the scenario's degradation ladder. With the exact solve capped
// below the model's state space, the validation row falls back to the
// decomp approximation, not to bounds, with the reason wording Run
// uses; starving the decomposition as well lands it on NetworkBounds
// with both hops named.
func TestFaultCrossValidationDegradesLikeRun(t *testing.T) {
	sc := Scenario{
		Name:        "xv-degraded",
		ThinkTime:   0.5,
		Populations: []int{20},
		Workload:    &WorkloadSpec{Mix: "shopping", Tiers: 2, Duration: 3600, Replicas: 2},
		Solvers:     []SolverKind{SolverCrossValidate},
		Planner:     &PlannerOptions{Solver: ctmc.Options{MaxStates: 4}},
	}
	validation := func(sc Scenario) *ValidationPoint {
		t.Helper()
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("state-limit refusal must degrade, not fail: %v", err)
		}
		vp := rep.Results[0].Validation
		if vp == nil || !vp.Degraded || !rep.Degraded || rep.FallbackReason != vp.FallbackReason {
			t.Fatalf("validation not degraded, or its reason not lifted to the report: %+v", rep)
		}
		if vp.MAPThroughput != 0 || vp.MVAThroughput <= 0 {
			t.Fatalf("degraded row MAP X = %v, MVA X = %v; want no exact column and the MVA baseline", vp.MAPThroughput, vp.MVAThroughput)
		}
		return vp
	}

	vp := validation(sc)
	if !strings.Contains(vp.FallbackReason, "state space") ||
		!strings.Contains(vp.FallbackReason, "decomp approximation reported instead") {
		t.Fatalf("FallbackReason = %q, want the state-space cause and the decomp hop", vp.FallbackReason)
	}
	if vp.Decomp == nil || vp.Decomp.Throughput <= 0 {
		t.Fatalf("degraded row missing the decomp approximation: %+v", vp)
	}
	if vp.Bounds != nil {
		t.Fatal("bounds must not be filled when the decomp hop succeeds")
	}

	sc.Planner.Decomp = &DecompOptions{MaxIter: 1}
	vp = validation(sc)
	for _, part := range []string{"state space", "decomp fallback also failed", "NetworkBounds reported instead"} {
		if !strings.Contains(vp.FallbackReason, part) {
			t.Fatalf("FallbackReason = %q, missing %q", vp.FallbackReason, part)
		}
	}
	if vp.Decomp != nil {
		t.Fatalf("double-degraded row carries a decomp column: %+v", vp.Decomp)
	}
	if vp.Bounds == nil || vp.Bounds.LowerX <= 0 || vp.Bounds.UpperX < vp.Bounds.LowerX {
		t.Fatalf("missing or implausible bounds fallback: %+v", vp.Bounds)
	}
}

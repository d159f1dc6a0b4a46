package burst

import (
	"context"
	"math"
	"testing"

	"repro/internal/mva"
)

// synthTierSamples fabricates monitoring data for one tier: per-window
// utilizations and completion counts whose service speed is modulated by
// a slow two-state burst regime (burstFactor > 1 makes the tier bursty,
// 1 keeps it smooth). During a burst the server slows down — utilization
// rises while completions do not — which is precisely the service-process
// burstiness the Figure 2 estimator detects from (U_k, n_k) pairs.
func synthTierSamples(seed int64, meanService, burstFactor float64) UtilizationSamples {
	const (
		period  = 5.0
		windows = 600
	)
	src := NewSource(seed)
	u := UtilizationSamples{PeriodSeconds: period}
	inBurst := false
	arrivals := 0.25 * period / meanService // ~25% utilization off-burst
	for k := 0; k < windows; k++ {
		// Sticky regime switching keeps bursts spanning several windows.
		if inBurst {
			inBurst = src.Float64() < 0.85
		} else {
			inBurst = src.Float64() < 0.05
		}
		// Per-window service speed: iid noise keeps even "smooth" tiers
		// stochastic; the sticky burst regime slows service further.
		s := meanService * (0.55 + 0.9*src.Float64())
		if inBurst {
			s *= burstFactor
		}
		completions := math.Round(arrivals * (0.8 + 0.4*src.Float64()))
		util := completions * s / period
		if util > 0.98 {
			util = 0.98
		}
		u.Completions = append(u.Completions, completions)
		u.Utilization = append(u.Utilization, util)
	}
	return u
}

// TestFacadeThreeTierEndToEnd is the N-tier acceptance path: build a
// 3-tier closed MAP network (front + app + DB + think) from three
// UtilizationSamples inputs and solve it end-to-end via the facade, with
// per-station utilizations, queue-length distributions and throughput
// reported.
func TestFacadeThreeTierEndToEnd(t *testing.T) {
	tiers := []UtilizationSamples{
		synthTierSamples(11, 0.004, 1.0), // smooth front
		synthTierSamples(23, 0.006, 2.0), // bursty app tier
		synthTierSamples(37, 0.003, 1.0), // smooth db
	}
	chars, err := CharacterizeAll(tiers)
	if err != nil {
		t.Fatal(err)
	}
	if len(chars) != 3 {
		t.Fatalf("got %d characterizations", len(chars))
	}
	for i, c := range chars {
		t.Logf("tier %d: S=%.5f I=%.1f p95=%.5f", i, c.MeanServiceTime, c.IndexOfDispersion, c.P95ServiceTime)
		if c.MeanServiceTime <= 0 || c.IndexOfDispersion <= 0 {
			t.Fatalf("tier %d characterization degenerate: %+v", i, c)
		}
	}
	// The bursty middle tier must be measured as burstier than the
	// smooth front.
	if chars[1].IndexOfDispersion <= chars[0].IndexOfDispersion {
		t.Errorf("app tier I = %v should exceed front I = %v",
			chars[1].IndexOfDispersion, chars[0].IndexOfDispersion)
	}

	ctx := context.Background()
	rep, err := Run(ctx, Scenario{
		ThinkTime:   0.5,
		Populations: []int{5, 12, 24},
		Tiers: []TierSpec{
			{Name: "front", Samples: &tiers[0]},
			{Name: "app", Samples: &tiers[1]},
			{Name: "db", Samples: &tiers[2]},
		},
		Solvers: []SolverKind{SolverMAP, SolverMVA, SolverBounds},
		Planner: &PlannerOptions{Solver: SolverOptions{Tol: 1e-8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	preds := rep.Results
	prev := 0.0
	for _, p := range preds {
		if len(p.MAP.Utils) != 3 || len(p.MAP.QueueDists) != 3 {
			t.Fatalf("per-station metrics missing: %+v", p.MAP)
		}
		if p.MAP.Throughput <= 0 || p.MAP.Throughput < prev-1e-9 {
			t.Errorf("implausible throughput sequence at %d EBs: %v", p.Population, p.MAP.Throughput)
		}
		prev = p.MAP.Throughput
		for s, dist := range p.MAP.QueueDists {
			sum := 0.0
			for _, q := range dist {
				sum += q
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Errorf("%d EBs: station %d distribution sums to %v", p.Population, s, sum)
			}
		}
		if p.MAP.Throughput > p.MVA.Throughput*1.01 {
			t.Errorf("%d EBs: MAP X %v exceeds MVA baseline %v", p.Population, p.MAP.Throughput, p.MVA.Throughput)
		}
	}

	// The same three tiers fitted and solved directly through the
	// network facade.
	stations := make([]Station, len(chars))
	for i, c := range chars {
		fit, err := FitMAP2(c.MeanServiceTime, c.IndexOfDispersion, c.P95ServiceTime, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stations[i] = Station{Name: rep.TierNames[i], MAP: fit.MAP}
	}
	met, err := SolveNetwork(ctx, MAPNetworkModelN{
		Stations:  stations,
		ThinkTime: 0.5,
		Customers: 12,
	}, SolverOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	// Scenario predictions run as a warm-started sweep, so the iterative
	// solver stops at a (slightly) different point inside the same
	// residual-tolerance ball as this cold solve: compare within solver
	// accuracy, not bitwise.
	if relDiff := math.Abs(met.Throughput-preds[1].MAP.Throughput) / met.Throughput; relDiff > 1e-4 {
		t.Errorf("facade network solve X = %v, scenario X = %v (rel diff %v)",
			met.Throughput, preds[1].MAP.Throughput, relDiff)
	}

	// N-tier bounds bracket the exact solution.
	if b := preds[1].Bounds; met.Throughput > b.UpperX*1.001 || met.Throughput < b.LowerX*0.999 {
		t.Errorf("bounds [%v, %v] miss exact %v", b.LowerX, b.UpperX, met.Throughput)
	}

	// The scenario's MVA column is K-station MVA over the tiers' demands.
	demands := make([]float64, len(rep.Tiers))
	for i, tr := range rep.Tiers {
		demands[i] = tr.Demand
	}
	base, err := mva.Solve(mva.ModelN(demands, nil, 0.5), 12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.Throughput-preds[1].MVA.Throughput) > 1e-9 {
		t.Errorf("MVA X = %v, scenario baseline X = %v", base.Throughput, preds[1].MVA.Throughput)
	}
}

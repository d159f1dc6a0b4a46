package burst

import (
	"context"
	"math"
	"testing"
)

// The facade tests exercise the public API end to end at small scale;
// deep behaviour is covered by the internal package suites.

func TestFacadeTraceWorkflow(t *testing.T) {
	src := NewSource(1)
	tr, err := GenerateBurstyTrace(20000, 1, 3, ProfileStrongBursts, src)
	if err != nil {
		t.Fatal(err)
	}
	i, err := IndexOfDispersion(tr, DispersionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if i < 10 {
		t.Errorf("I = %v, want strongly bursty", i)
	}
	res, err := SimulateMTrace1(tr, 0.5, NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponse <= 1 {
		t.Errorf("bursty M/Trace/1 response = %v, want > service mean", res.MeanResponse)
	}
}

func TestFacadeFitAndModel(t *testing.T) {
	fit, err := FitMAP2(0.005, 120, 0.02, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.MAP.Mean()-0.005) > 1e-6 {
		t.Errorf("fitted mean = %v", fit.MAP.Mean())
	}
	met, err := SolveNetwork(context.Background(), MAPNetworkModelN{
		Stations:  []Station{{Name: "front", MAP: fit.MAP}, {Name: "db", MAP: fit.MAP}},
		ThinkTime: 0.5,
		Customers: 10,
	}, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if met.Throughput <= 0 {
		t.Error("zero model throughput")
	}
	// The MVA baseline over the same mean demands.
	tier := TierSpec{Mean: 0.005, IndexOfDispersion: 120, P95: 0.02}
	rep, err := Run(context.Background(), Scenario{
		ThinkTime:   0.5,
		Populations: []int{10},
		Tiers:       []TierSpec{tier, tier},
		Solvers:     []SolverKind{SolverMVA},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := rep.Results[0].MVA
	if met.Throughput > base.Throughput*1.01 {
		t.Errorf("bursty model X %v should not exceed MVA %v", met.Throughput, base.Throughput)
	}
}

func TestFacadeTPCWAndPlan(t *testing.T) {
	tiers, err := DefaultTPCWTiers(OrderingMix(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run, err := Simulate(ctx, TPCWConfigN{
		Mix: OrderingMix(), Tiers: tiers, EBs: 30, Seed: 3,
		Duration: 900, Warmup: 60, Cooldown: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Characterize(run.TierSamples[0])
	if err != nil {
		t.Fatal(err)
	}
	if ch.MeanServiceTime <= 0 {
		t.Error("characterization failed")
	}
	rep, err := Run(ctx, Scenario{
		ThinkTime:   0.5,
		Populations: []int{10, 30},
		Tiers: []TierSpec{
			{Name: "front", Samples: &run.TierSamples[0]},
			{Name: "db", Samples: &run.TierSamples[1]},
		},
		Solvers: []SolverKind{SolverMAP},
	})
	if err != nil {
		t.Fatal(err)
	}
	preds := rep.Results
	if len(preds) != 2 || preds[1].MAP.Throughput <= preds[0].MAP.Throughput*0.5 {
		t.Errorf("predictions implausible: %+v", preds)
	}
}

func TestFacadeMixes(t *testing.T) {
	if BrowsingMix().Name != "browsing" || ShoppingMix().Name != "shopping" || OrderingMix().Name != "ordering" {
		t.Error("mix constructors wrong")
	}
	// A deterministic measurement stream has zero count variance, so the
	// Figure 2 estimator must report I = 0; noisy counts give I > 0.
	est, err := EstimateIndexOfDispersion(UtilizationSamples{
		PeriodSeconds: 5,
		Utilization:   fill(400, 0.8),
		Completions:   fill(400, 40),
	}, DispersionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if est.I != 0 {
		t.Errorf("deterministic stream I = %v, want 0", est.I)
	}
	noisy := UtilizationSamples{PeriodSeconds: 5}
	src := NewSource(9)
	for k := 0; k < 400; k++ {
		noisy.Utilization = append(noisy.Utilization, 0.5+0.4*src.Float64())
		noisy.Completions = append(noisy.Completions, float64(20+src.Intn(40)))
	}
	est2, err := EstimateIndexOfDispersion(noisy, DispersionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if est2.I <= 0 {
		t.Errorf("noisy stream I = %v, want > 0", est2.I)
	}
}

func fill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestFacadeExtensions(t *testing.T) {
	// Hurst parameter.
	tr, err := GenerateBurstyTrace(20000, 1, 3, ProfileStrongBursts, NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	h, err := HurstParameter(tr)
	if err != nil {
		t.Fatal(err)
	}
	if h <= 0.5 || h > 1 {
		t.Errorf("bursty Hurst = %v, want in (0.5, 1]", h)
	}

	// Counts-route MMPP fitting.
	mmpp, err := FitMMPP2FromCounts(100, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mmpp.Order() != 2 {
		t.Errorf("MMPP order = %d, want 2", mmpp.Order())
	}

	// Model bounds bracket an exact solve.
	tier := TierSpec{Mean: 0.005, IndexOfDispersion: 80, P95: 0.03}
	rep, err := Run(context.Background(), Scenario{
		ThinkTime:   0.5,
		Populations: []int{20},
		Tiers:       []TierSpec{tier, tier},
		Solvers:     []SolverKind{SolverMAP, SolverBounds},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, exact := rep.Results[0].Bounds, rep.Results[0].MAP
	if exact.Throughput > b.UpperX*1.001 || exact.Throughput < b.LowerX*0.999 {
		t.Errorf("bounds [%v, %v] do not bracket exact %v", b.LowerX, b.UpperX, exact.Throughput)
	}

	// Heavy-traffic waiting formula.
	w, err := HeavyTrafficWait(0.8, 0.01, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 {
		t.Errorf("heavy traffic wait = %v", w)
	}
}

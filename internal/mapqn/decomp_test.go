package mapqn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/markov"
	"repro/internal/matrix"
	"repro/internal/mva"
)

// expMAP builds an order-1 (exponential) MAP with the given mean service
// time — the product-form special case the decomposition must solve
// exactly.
func expMAP(t *testing.T, mean float64) *markov.MAP {
	t.Helper()
	r := 1 / mean
	mp, err := markov.New(matrix.FromRows([][]float64{{-r}}), matrix.FromRows([][]float64{{r}}))
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

// TestDecompProductFormExact is the correctness anchor (Norton's
// theorem): on product-form networks — every station exponential — the
// per-station chains coincide with their exponential surrogates, the
// demand fixed point terminates on the first iteration, and the result
// is exact. Randomized shapes (K = 1..5, N <= 30, random demands and
// think times) are pinned against exact MVA and, since the exponential
// state spaces stay small, against the exact CTMC as well.
func TestDecompProductFormExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(5)
		n := 1 + rng.Intn(30)
		z := 0.05 + 0.5*rng.Float64()
		demands := make([]float64, k)
		stations := make([]Station, k)
		for i := range demands {
			demands[i] = 0.002 + 0.03*rng.Float64()
			stations[i] = Station{Name: fmt.Sprintf("s%d", i), MAP: expMAP(t, demands[i])}
		}
		m := NetworkModel{Stations: stations, ThinkTime: z, Customers: n}
		ap, err := SolveNetworkDecompCtx(context.Background(), m, DecompOptions{})
		if err != nil {
			t.Fatalf("trial %d (K=%d N=%d): %v", trial, k, n, err)
		}
		if ap.SolverIterations != 1 {
			t.Errorf("trial %d (K=%d N=%d): product form took %d iterations, want 1 (Norton fixed point)",
				trial, k, n, ap.SolverIterations)
		}
		if ap.SolverMethod != SolverMethodDecomp {
			t.Fatalf("SolverMethod = %q, want %q", ap.SolverMethod, SolverMethodDecomp)
		}

		mv, err := mva.Solve(mva.Network{Demands: demands, ThinkTime: z}, n)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(ap.Throughput-mv.Throughput) / mv.Throughput; rel > 1e-6 {
			t.Errorf("trial %d (K=%d N=%d): decomp X=%v vs MVA X=%v (rel %.2e > 1e-6)",
				trial, k, n, ap.Throughput, mv.Throughput, rel)
		}

		ex, err := SolveNetworkCtx(context.Background(), m, ctmc.Options{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(ap.Throughput-ex.Throughput) / ex.Throughput; rel > 1e-6 {
			t.Errorf("trial %d (K=%d N=%d): decomp X=%v vs exact X=%v (rel %.2e > 1e-6)",
				trial, k, n, ap.Throughput, ex.Throughput, rel)
		}
	}
}

// TestDecompK1Exact pins the other exactness corner: for a single
// station the isolated level chain *is* the exact CTMC (arrivals
// (N-j)/Z from the bare think pool), so the decomposition must
// reproduce the exact solve for an arbitrarily bursty MAP — with frozen
// and with free-running idle phases.
func TestDecompK1Exact(t *testing.T) {
	db := fitMAP(t, 0.005, 120, 0.03)
	for _, idleRun := range []bool{false, true} {
		for _, n := range []int{1, 5, 20, 60} {
			m := NetworkModel{
				Stations:           []Station{{Name: "db", MAP: db}},
				ThinkTime:          0.4,
				Customers:          n,
				PhasesRunWhileIdle: idleRun,
			}
			ex, err := SolveNetworkCtx(context.Background(), m, ctmc.Options{Tol: 1e-12})
			if err != nil {
				t.Fatal(err)
			}
			ap, err := SolveNetworkDecompCtx(context.Background(), m, DecompOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(ap.Throughput-ex.Throughput) / ex.Throughput; rel > 1e-7 {
				t.Errorf("idleRun=%v N=%d: decomp X=%v vs exact X=%v (rel %.2e)",
					idleRun, n, ap.Throughput, ex.Throughput, rel)
			}
			if rel := math.Abs(ap.QueueLens[0]-ex.QueueLens[0]) / math.Max(1e-12, ex.QueueLens[0]); rel > 1e-6 {
				t.Errorf("idleRun=%v N=%d: decomp Q=%v vs exact Q=%v", idleRun, n, ap.QueueLens[0], ex.QueueLens[0])
			}
		}
	}
}

// TestDecompAccuracyTwoTier checks the approximation quality claim on
// the paper's two-tier shape at a bursty operating point: the decomp
// throughput stays within 5% of the exact CTMC.
func TestDecompAccuracyTwoTier(t *testing.T) {
	front := fitMAP(t, 0.0068, 4, 0.021)
	db := fitMAP(t, 0.0046, 40, 0.019)
	for _, n := range []int{10, 50, 100} {
		m := NetworkModel{
			Stations:  []Station{{Name: "front", MAP: front}, {Name: "db", MAP: db}},
			ThinkTime: 0.5,
			Customers: n,
		}
		ex, err := SolveNetworkCtx(context.Background(), m, ctmc.Options{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		ap, err := SolveNetworkDecompCtx(context.Background(), m, DecompOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(ap.Throughput-ex.Throughput) / ex.Throughput
		if rel > 0.05 {
			t.Errorf("N=%d: decomp X=%v vs exact X=%v (rel %.2f%% > 5%%)", n, ap.Throughput, ex.Throughput, 100*rel)
		}
		if ap.States >= ex.States {
			t.Errorf("N=%d: decomp states %d not smaller than exact %d", n, ap.States, ex.States)
		}
		if ap.FixedPointResidual >= 1e-9 {
			t.Errorf("N=%d: converged residual %v not under tol", n, ap.FixedPointResidual)
		}
	}
}

// TestDecompSweepMatchesPerPopulation pins the warm-started sweep
// against independent per-population solves: warm-starting the demand
// fixed point changes the iteration path, not the fixed point itself.
func TestDecompSweepMatchesPerPopulation(t *testing.T) {
	front := fitMAP(t, 0.004, 40, 0.02)
	db := fitMAP(t, 0.003, 25, 0.01)
	stations := []Station{{Name: "front", MAP: front}, {Name: "db", MAP: db}}
	populations := []int{5, 15, 30, 60}
	swept, err := SolveNetworkDecompSweepCtx(context.Background(), stations, 0.5, populations, DecompOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != len(populations) {
		t.Fatalf("sweep returned %d results, want %d", len(swept), len(populations))
	}
	for i, n := range populations {
		solo, err := SolveNetworkDecompCtx(context.Background(), NetworkModel{Stations: stations, ThinkTime: 0.5, Customers: n}, DecompOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(swept[i].Throughput-solo.Throughput) / solo.Throughput; rel > 1e-6 {
			t.Errorf("N=%d: sweep X=%v vs solo X=%v (rel %.2e)", n, swept[i].Throughput, solo.Throughput, rel)
		}
	}
}

// TestDecompNonConvergence starves the outer fixed point (one
// iteration on a bursty two-tier network) and checks the failure wraps
// ctmc.ErrNoConvergence, the class the facade's degradation chain
// recognizes.
func TestDecompNonConvergence(t *testing.T) {
	front := fitMAP(t, 0.0068, 4, 0.021)
	db := fitMAP(t, 0.0046, 40, 0.019)
	m := NetworkModel{
		Stations:  []Station{{Name: "front", MAP: front}, {Name: "db", MAP: db}},
		ThinkTime: 0.5,
		Customers: 50,
	}
	_, err := SolveNetworkDecompCtx(context.Background(), m, DecompOptions{MaxIter: 1})
	if !errors.Is(err, ctmc.ErrNoConvergence) {
		t.Fatalf("MaxIter=1 error = %v, want ctmc.ErrNoConvergence in the chain", err)
	}
}

// TestDecompCancellation checks the outer loop polls ctx.
func TestDecompCancellation(t *testing.T) {
	front := fitMAP(t, 0.0068, 4, 0.021)
	db := fitMAP(t, 0.0046, 40, 0.019)
	m := NetworkModel{
		Stations:  []Station{{Name: "front", MAP: front}, {Name: "db", MAP: db}},
		ThinkTime: 0.5,
		Customers: 50,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveNetworkDecompCtx(ctx, m, DecompOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve error = %v, want context.Canceled", err)
	}
}

// TestDecompOptionsValidation rejects out-of-range fixed-point knobs.
func TestDecompOptionsValidation(t *testing.T) {
	db := fitMAP(t, 0.005, 40, 0.03)
	m := NetworkModel{Stations: []Station{{Name: "db", MAP: db}}, ThinkTime: 0.5, Customers: 3}
	for _, opts := range []DecompOptions{
		{Tol: -1},
		{MaxIter: -1},
		{Damping: -0.5},
		{Damping: 1.5},
	} {
		if _, err := SolveNetworkDecompCtx(context.Background(), m, opts); err == nil {
			t.Errorf("options %+v: expected a validation error", opts)
		}
	}
}

// TestDecompAllocations pins the per-solve workspace: a K=6, N=200
// solve that runs the full 200 fixed-point iterations allocates a fixed
// handful of buffers (the workspace and the reported metrics), not a
// count that grows with iterations x stations x levels.
func TestDecompAllocations(t *testing.T) {
	stations := []Station{
		{Name: "lb", MAP: fitMAP(t, 0.002, 4, 0.008)},
		{Name: "front", MAP: fitMAP(t, 0.004, 40, 0.02)},
		{Name: "cache", MAP: fitMAP(t, 0.0025, 10, 0.009)},
		{Name: "app", MAP: fitMAP(t, 0.006, 120, 0.04)},
		{Name: "search", MAP: fitMAP(t, 0.005, 60, 0.03)},
		{Name: "db", MAP: fitMAP(t, 0.003, 25, 0.01)},
	}
	m := NetworkModel{Stations: stations, ThinkTime: 0.5, Customers: 200}
	var met NetworkMetrics
	allocs := testing.AllocsPerRun(2, func() {
		var err error
		if met, err = SolveNetworkDecompCtx(context.Background(), m, DecompOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if met.SolverIterations != decompDefaultMaxIter {
		t.Fatalf("solve took %d iterations, want the full %d", met.SolverIterations, decompDefaultMaxIter)
	}
	if allocs > 100 {
		t.Errorf("K=6 N=200 decomp solve allocates %v times, want <= 100", allocs)
	}
}

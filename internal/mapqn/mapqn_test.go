package mapqn

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ctmc"
	"repro/internal/markov"
	"repro/internal/mva"
	"repro/internal/xrand"
)

// The tests in this file exercise the paper's two-tier front+DB network,
// the K=2 case of NetworkModel.

// twoTier builds the paper's front+DB network.
func twoTier(front, db *markov.MAP, z float64, n int) NetworkModel {
	return NetworkModel{
		Stations:  []Station{{Name: "front", MAP: front}, {Name: "db", MAP: db}},
		ThinkTime: z,
		Customers: n,
	}
}

func solveTwoTier(t *testing.T, m NetworkModel) NetworkMetrics {
	t.Helper()
	got, err := SolveNetworkCtx(context.Background(), m, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestValidate(t *testing.T) {
	p := markov.Poisson(1)
	cases := []NetworkModel{
		twoTier(nil, p, 1, 1),
		twoTier(p, nil, 1, 1),
		twoTier(p, p, -1, 1),
		twoTier(p, p, 1, 0),
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
		if _, err := SolveNetworkCtx(context.Background(), m, ctmc.Options{}); err == nil {
			t.Errorf("case %d: expected solve error", i)
		}
	}
}

// TestPoissonReducesToMVA is the key cross-validation: with exponential
// service (Poisson MAPs, I = 1) the MAP queueing network is a product-form
// network, so the exact CTMC solution must match exact MVA.
func TestPoissonReducesToMVA(t *testing.T) {
	sFS, sDB, z := 0.004, 0.007, 0.5
	front := markov.Poisson(1 / sFS)
	db := markov.Poisson(1 / sDB)
	net := mva.ModelN([]float64{sFS, sDB}, nil, z)
	for _, n := range []int{1, 5, 25, 75} {
		got := solveTwoTier(t, twoTier(front, db, z, n))
		want, err := mva.Solve(net, n)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got.Throughput-want.Throughput) / want.Throughput; rel > 1e-6 {
			t.Errorf("N=%d: CTMC X = %v, MVA X = %v (rel %v)", n, got.Throughput, want.Throughput, rel)
		}
		if rel := math.Abs(got.QueueLens[0]-want.QueueLengths[0]) / (want.QueueLengths[0] + 1e-12); rel > 1e-5 {
			t.Errorf("N=%d: CTMC QF = %v, MVA QF = %v", n, got.QueueLens[0], want.QueueLengths[0])
		}
		if math.Abs(got.Utils[0]-want.Utilizations[0]) > 1e-6 {
			t.Errorf("N=%d: CTMC UF = %v, MVA UF = %v", n, got.Utils[0], want.Utilizations[0])
		}
	}
}

func TestSingleCustomerClosedForm(t *testing.T) {
	// N=1: the customer cycles think -> front -> db. With exponential
	// stations, X = 1/(Z + S_FS + S_DB) exactly.
	sFS, sDB, z := 0.2, 0.3, 1.0
	got := solveTwoTier(t, twoTier(markov.Poisson(1/sFS), markov.Poisson(1/sDB), z, 1))
	want := 1 / (z + sFS + sDB)
	if math.Abs(got.Throughput-want) > 1e-9 {
		t.Errorf("X = %v, want %v", got.Throughput, want)
	}
	if math.Abs(got.ResponseTime-(sFS+sDB)) > 1e-9 {
		t.Errorf("R = %v, want %v", got.ResponseTime, sFS+sDB)
	}
}

func TestBurstyServiceDegradesThroughput(t *testing.T) {
	// The paper's core claim: with identical mean demands, a bursty DB
	// (high I) yields lower throughput than an exponential DB at the same
	// population.
	sFS, sDB, z := 0.004, 0.006, 0.5
	front := markov.Poisson(1 / sFS)
	burstyDB := fitMAP(t, sDB, 200, sDB*8)
	n := 100
	smooth := solveTwoTier(t, twoTier(front, markov.Poisson(1/sDB), z, n))
	bursty := solveTwoTier(t, twoTier(front, burstyDB, z, n))
	t.Logf("X smooth = %.1f, X bursty = %.1f", smooth.Throughput, bursty.Throughput)
	if bursty.Throughput >= smooth.Throughput {
		t.Errorf("bursty X = %v should be below smooth X = %v", bursty.Throughput, smooth.Throughput)
	}
	// Queue builds at the bursty DB.
	if bursty.QueueLens[1] <= smooth.QueueLens[1] {
		t.Errorf("bursty QDB = %v should exceed smooth QDB = %v", bursty.QueueLens[1], smooth.QueueLens[1])
	}
}

func TestCustomerConservation(t *testing.T) {
	got := solveTwoTier(t, twoTier(markov.Poisson(1/0.003), fitMAP(t, 0.005, 50, 0.03), 0.5, 40))
	total := got.QueueLens[0] + got.QueueLens[1] + got.Thinking
	if math.Abs(total-40) > 1e-6 {
		t.Errorf("customer conservation violated: %v != 40", total)
	}
	// Little's law on the think station: Thinking = X * Z (up to solver
	// residual).
	if math.Abs(got.Thinking-got.Throughput*0.5) > 1e-5*got.Thinking {
		t.Errorf("think-station Little's law violated: %v vs %v", got.Thinking, got.Throughput*0.5)
	}
}

func TestThroughputMonotoneInPopulation(t *testing.T) {
	stations := twoTier(fitMAP(t, 0.004, 40, 0.02), fitMAP(t, 0.005, 100, 0.04), 0.5, 1).Stations
	mets, err := SolveNetworkSweepCtx(context.Background(), stations, 0.5, []int{1, 5, 10, 20, 40, 80}, ctmc.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, met := range mets {
		if met.Throughput < prev-1e-9 {
			t.Errorf("throughput decreased at sweep index %d: %v -> %v", i, prev, met.Throughput)
		}
		prev = met.Throughput
		for s, u := range met.Utils {
			if u < 0 || u > 1+1e-9 {
				t.Errorf("sweep index %d: station %d utilization %v out of range", i, s, u)
			}
		}
	}
}

func TestThroughputBoundedByBottleneck(t *testing.T) {
	// X <= 1/max(S_FS, S_DB) regardless of burstiness.
	got := solveTwoTier(t, twoTier(markov.Poisson(1/0.002), fitMAP(t, 0.01, 300, 0.08), 0.25, 60))
	if got.Throughput > 1/0.01+1e-9 {
		t.Errorf("X = %v exceeds bottleneck bound %v", got.Throughput, 1/0.01)
	}
}

// TestStateSpaceIndexRoundTrip checks that the K=2 state layout is the
// paper model's triangular one: for each (n1, n2) pair in order of n1,
// then n2, a block of m1*m2 phase combinations.
func TestStateSpaceIndexRoundTrip(t *testing.T) {
	const n, m1, m2 = 7, 2, 3
	s := newStateSpaceN(n, []int{m1, m2})
	pop, phase := make([]int, 2), make([]int, 2)
	pair := 0
	for n1 := 0; n1 <= n; n1++ {
		for n2 := 0; n2 <= n-n1; n2++ {
			for j1 := 0; j1 < m1; j1++ {
				for j2 := 0; j2 < m2; j2++ {
					want := (pair*m1+j1)*m2 + j2
					idx := s.index([]int{n1, n2}, j1*m2+j2)
					if idx != want {
						t.Fatalf("index(%d,%d,%d,%d) = %d, want %d", n1, n2, j1, j2, idx, want)
					}
					s.decode(idx, pop, phase)
					if pop[0] != n1 || pop[1] != n2 || phase[0] != j1 || phase[1] != j2 {
						t.Fatalf("decode(%d) = %v/%v, want (%d,%d)/(%d,%d)", idx, pop, phase, n1, n2, j1, j2)
					}
				}
			}
			pair++
		}
	}
	if got := pair * m1 * m2; got != s.size() {
		t.Fatalf("enumerated %d states, size() = %d", got, s.size())
	}
}

func TestGeneratorIsValid(t *testing.T) {
	for _, idle := range []bool{false, true} {
		m := twoTier(markov.Poisson(1/0.004), fitMAP(t, 0.005, 80, 0.03), 0.5, 12)
		m.PhasesRunWhileIdle = idle
		gen, _, err := buildGeneratorN(context.Background(), m, []*markov.MAP{m.Stations[0].MAP, m.Stations[1].MAP})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctmc.ValidateGenerator(gen); err != nil {
			t.Errorf("idle=%v: generator invalid: %v", idle, err)
		}
	}
}

// Property: for random fitted MAPs the solution is a consistent set of
// metrics (conservation, utilization law, bounds).
func TestPropModelConsistency(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		sFS := 0.001 + 0.01*src.Float64()
		sDB := 0.001 + 0.01*src.Float64()
		iDB := 1.5 + 100*src.Float64()
		fit, err := markov.FitThreePoint(sDB, iDB, sDB*5, markov.FitOptions{GridPoints: 40})
		if err != nil {
			return false
		}
		n := 1 + src.Intn(30)
		z := 0.1 + src.Float64()
		got, err := SolveNetworkCtx(context.Background(), twoTier(markov.Poisson(1/sFS), fit.MAP, z, n), ctmc.Options{})
		if err != nil {
			return false
		}
		if got.Throughput <= 0 || got.Throughput > 1/math.Max(sFS, sDB)+1e-9 {
			return false
		}
		total := got.QueueLens[0] + got.QueueLens[1] + got.Thinking
		if math.Abs(total-float64(n)) > 1e-6*float64(n) {
			return false
		}
		// Utilization law: U_i = X * S_i.
		if math.Abs(got.Utils[0]-got.Throughput*sFS) > 1e-5 {
			return false
		}
		if math.Abs(got.Utils[1]-got.Throughput*sDB) > 1e-5 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQueueDistributionsConsistent(t *testing.T) {
	got := solveTwoTier(t, twoTier(markov.Poisson(1/0.004), fitMAP(t, 0.005, 60, 0.03), 0.5, 20))
	for s, dist := range got.QueueDists {
		if len(dist) != 21 {
			t.Fatalf("distribution length = %d, want 21", len(dist))
		}
		sum, mean := 0.0, 0.0
		for k, p := range dist {
			if p < -1e-12 {
				t.Fatalf("negative probability %v at %d", p, k)
			}
			sum += p
			mean += float64(k) * p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("station %d: distribution sums to %v", s, sum)
		}
		// The distribution's mean is the reported mean queue length, and
		// P(idle) complements utilization.
		if math.Abs(mean-got.QueueLens[s]) > 1e-9 {
			t.Errorf("station %d: dist mean %v vs queue length %v", s, mean, got.QueueLens[s])
		}
		if math.Abs(dist[0]-(1-got.Utils[s])) > 1e-9 {
			t.Errorf("station %d: P(empty) = %v, 1-U = %v", s, dist[0], 1-got.Utils[s])
		}
	}
}

func TestBurstyQueueTailHeavierThanPoisson(t *testing.T) {
	// Burstiness shows up as mass at high queue lengths (the model-side
	// analogue of the paper's Fig. 6 spikes).
	n := 30
	front := markov.Poisson(1 / 0.004)
	smooth := solveTwoTier(t, twoTier(front, markov.Poisson(1/0.005), 0.5, n))
	bursty := solveTwoTier(t, twoTier(front, fitMAP(t, 0.005, 150, 0.03), 0.5, n))
	tail := func(dist []float64, from int) float64 {
		s := 0.0
		for k := from; k < len(dist); k++ {
			s += dist[k]
		}
		return s
	}
	tb, ts := tail(bursty.QueueDists[1], 20), tail(smooth.QueueDists[1], 20)
	t.Logf("P(Qdb >= 20): bursty %.4g vs poisson %.4g", tb, ts)
	if tb <= ts {
		t.Errorf("bursty DB tail %v should exceed Poisson tail %v", tb, ts)
	}
}

func TestBoundsBracketExactSolution(t *testing.T) {
	front, db := fitMAP(t, 0.006, 30, 0.02), fitMAP(t, 0.004, 120, 0.025)
	for _, n := range []int{5, 25, 75} {
		m := twoTier(front, db, 0.5, n)
		b, err := NetworkBounds(m)
		if err != nil {
			t.Fatal(err)
		}
		exact := solveTwoTier(t, m)
		t.Logf("N=%3d lower=%7.2f exact=%7.2f upper=%7.2f", n, b.LowerX, exact.Throughput, b.UpperX)
		if exact.Throughput > b.UpperX*1.001 {
			t.Errorf("N=%d: exact X %v above upper bound %v", n, exact.Throughput, b.UpperX)
		}
		if exact.Throughput < b.LowerX*0.999 {
			t.Errorf("N=%d: exact X %v below lower bound %v", n, exact.Throughput, b.LowerX)
		}
		if b.LowerX > b.UpperX {
			t.Errorf("N=%d: bounds inverted", n)
		}
	}
}

func TestBoundsScaleToLargePopulations(t *testing.T) {
	// The paper's Z=7s scenario needs ~1200 EBs — far beyond exact CTMC
	// reach; bounds must answer instantly.
	stations := twoTier(markov.Poisson(1/0.006), fitMAP(t, 0.004, 300, 0.03), 7, 1).Stations
	sweep, err := NetworkBoundsSweep(stations, 7.0, []int{300, 600, 1200})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sweep {
		if b.LowerX <= 0 || b.UpperX < b.LowerX {
			t.Errorf("N=%d: invalid bounds %+v", b.Customers, b)
		}
	}
	// At 1200 EBs the upper bound approaches the bottleneck ceiling.
	last := sweep[len(sweep)-1]
	if last.UpperX < 0.9/0.006 {
		t.Errorf("upper bound at 1200 EBs = %v, want near bottleneck 1/S", last.UpperX)
	}
}

func TestBoundsValidation(t *testing.T) {
	if _, err := NetworkBounds(NetworkModel{}); err == nil {
		t.Error("expected validation error")
	}
	if _, err := NetworkBounds(twoTier(markov.Poisson(1), nil, 0.5, 10)); err == nil {
		t.Error("expected validation error for a station without a MAP")
	}
}

package tpcw

import (
	"context"
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestMixesAreDistributions(t *testing.T) {
	for _, mix := range StandardMixes() {
		if err := mix.Validate(); err != nil {
			t.Errorf("%s: %v", mix.Name, err)
		}
	}
}

func TestMixBrowseFractions(t *testing.T) {
	// The TPC-W standard splits: 95/5, 80/20, 50/50.
	wants := map[string]float64{"browsing": 0.95, "shopping": 0.80, "ordering": 0.50}
	for _, mix := range StandardMixes() {
		want := wants[mix.Name]
		if got := mix.BrowseFraction(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s browse fraction = %v, want %v", mix.Name, got, want)
		}
	}
}

func TestMixValidateRejectsBadWeights(t *testing.T) {
	m := BrowsingMix()
	m.Weights[Home] = -0.1
	if err := m.Validate(); err == nil {
		t.Error("expected error for negative weight")
	}
	m = BrowsingMix()
	m.Weights[Home] += 0.5
	if err := m.Validate(); err == nil {
		t.Error("expected error for weights not summing to 1")
	}
}

func TestTransactionNames(t *testing.T) {
	if Home.String() != "Home" || BestSellers.String() != "BestSellers" {
		t.Error("transaction names wrong")
	}
	if Transaction(99).String() == "" {
		t.Error("out-of-range transaction should still render")
	}
	if !Home.IsBrowsing() || ShoppingCart.IsBrowsing() {
		t.Error("browsing classification wrong")
	}
}

func TestCBMGRowsAreDistributions(t *testing.T) {
	for _, mix := range StandardMixes() {
		c := NewCBMG(mix, 0.35)
		for tt := Transaction(0); tt < NumTransactions; tt++ {
			row := c.Row(tt)
			sum := 0.0
			for _, p := range row {
				if p < 0 {
					t.Fatalf("%s: negative transition prob from %v", mix.Name, tt)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: row %v sums to %v", mix.Name, tt, sum)
			}
		}
	}
}

func TestCBMGVisitSharesTrackMix(t *testing.T) {
	// Long navigation should visit types roughly per the mix weights.
	mix := BrowsingMix()
	c := NewCBMG(mix, 0.35)
	src := xrand.New(7)
	var counts [NumTransactions]int
	cur := Home
	const n = 200000
	for i := 0; i < n; i++ {
		cur = c.Next(cur, src)
		counts[cur]++
	}
	for tt := Transaction(0); tt < NumTransactions; tt++ {
		got := float64(counts[tt]) / n
		want := mix.Weights[tt]
		if math.Abs(got-want) > 0.05+0.3*want {
			t.Errorf("visit share of %v = %.4f, mix weight %.4f", tt, got, want)
		}
	}
	// Best Seller share ~11% in the browsing mix (Section 3.3).
	bs := float64(counts[BestSellers]) / n
	if bs < 0.07 || bs > 0.16 {
		t.Errorf("BestSellers share = %v, want ~0.11", bs)
	}
}

func TestContentionParamsValidate(t *testing.T) {
	if err := (ContentionParams{}).Validate(); err != nil {
		t.Errorf("disabled params should validate: %v", err)
	}
	bad := []ContentionParams{
		{TriggerProbability: 0.5, SlowFactor: 0, MeanDuration: 1},
		{TriggerProbability: 0.5, SlowFactor: 1.5, MeanDuration: 1},
		{TriggerProbability: 0.5, SlowFactor: 0.5, MeanDuration: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// twoTierConfig is the paper's front+DB testbed configuration.
func twoTierConfig(t *testing.T, cfg ConfigN) ConfigN {
	t.Helper()
	tiers, err := DefaultTiers(cfg.Mix, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tiers = tiers
	return cfg
}

func runTwoTier(t *testing.T, cfg ConfigN) (*ResultN, error) {
	t.Helper()
	return RunNCtx(context.Background(), twoTierConfig(t, cfg))
}

func TestConfigValidation(t *testing.T) {
	good := twoTierConfig(t, ConfigN{Mix: OrderingMix(), EBs: 10, Seed: 1, Duration: 300, Warmup: 30, Cooldown: 30})
	if err := good.WithDefaults().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []ConfigN{
		{Mix: OrderingMix(), EBs: 0},
		{Mix: OrderingMix(), EBs: 10, ThinkTime: -1},
		{Mix: OrderingMix(), EBs: 10, Duration: 100, Warmup: 60, Cooldown: 60},
	}
	for i, c := range cases {
		if err := twoTierConfig(t, c).WithDefaults().Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// shortRun is a fast two-tier configuration for behavioural tests.
func shortRun(t *testing.T, mix Mix, ebs int, seed int64, series bool) *ResultN {
	t.Helper()
	res, err := runTwoTier(t, ConfigN{
		Mix: mix, EBs: ebs, Seed: seed,
		Duration: 900, Warmup: 60, Cooldown: 30,
		TrackSeries: series,
	})
	if err != nil {
		t.Fatalf("%s/%d: %v", mix.Name, ebs, err)
	}
	return res
}

func TestRunBasicInvariants(t *testing.T) {
	res := shortRun(t, OrderingMix(), 50, 1, false)
	if res.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
	if res.MeanResponse <= 0 || res.P95Response < res.MeanResponse {
		t.Errorf("response stats inconsistent: mean %v p95 %v", res.MeanResponse, res.P95Response)
	}
	for i, u := range res.AvgUtil {
		if u <= 0 || u > 1 {
			t.Errorf("tier %d utilization %v out of range", i, u)
		}
		if err := res.TierSamples[i].Validate(); err != nil {
			t.Errorf("tier %d samples: %v", i, err)
		}
	}
	var totalByType int64
	for _, c := range res.CompletedByType {
		totalByType += c
	}
	if totalByType != res.Completed {
		t.Errorf("per-type counts sum to %d, total %d", totalByType, res.Completed)
	}
}

func TestRunReproducible(t *testing.T) {
	a := shortRun(t, ShoppingMix(), 30, 77, false)
	b := shortRun(t, ShoppingMix(), 30, 77, false)
	if a.Throughput != b.Throughput || a.Completed != b.Completed {
		t.Errorf("same seed produced different runs: %v vs %v", a.Throughput, b.Throughput)
	}
	c := shortRun(t, ShoppingMix(), 30, 78, false)
	if a.Completed == c.Completed {
		t.Log("different seeds produced identical completion counts (unlikely but possible)")
	}
}

func TestThroughputSaturatesWithEBs(t *testing.T) {
	// Fig. 4(a): throughput grows with EBs then flattens; utilization of
	// the front grows toward 1 (shopping mix is front-bottlenecked).
	var prev float64
	for _, ebs := range []int{25, 75, 150} {
		res := shortRun(t, ShoppingMix(), ebs, 5, false)
		if res.Throughput < prev*0.95 {
			t.Errorf("throughput dropped at %d EBs: %v -> %v", ebs, prev, res.Throughput)
		}
		prev = res.Throughput
	}
	high := shortRun(t, ShoppingMix(), 150, 5, false)
	if high.AvgUtil[0] < 0.85 {
		t.Errorf("front utilization at 150 EBs = %v, want near saturation", high.AvgUtil[0])
	}
	if high.AvgUtil[1] > high.AvgUtil[0] {
		t.Errorf("shopping mix should be front-bottlenecked (Ud %v < Uf %v)",
			high.AvgUtil[1], high.AvgUtil[0])
	}
}

func TestBrowsingMixIsBursty(t *testing.T) {
	// The central testbed findings (Sections 3.2-3.3): under the browsing
	// mix both tiers have a much higher index of dispersion than under
	// the ordering mix, and bottleneck switch appears only for browsing.
	browsing := shortRun(t, BrowsingMix(), 100, 9, true)
	ordering := shortRun(t, OrderingMix(), 100, 9, true)

	iFB, err := browsing.TierSamples[0].EstimateIndexOfDispersion(trace.DispersionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	iFO, err := ordering.TierSamples[0].EstimateIndexOfDispersion(trace.DispersionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	iDB, err := browsing.TierSamples[1].EstimateIndexOfDispersion(trace.DispersionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	iDO, err := ordering.TierSamples[1].EstimateIndexOfDispersion(trace.DispersionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("I_front: browsing %.1f vs ordering %.1f; I_db: browsing %.1f vs ordering %.1f",
		iFB.I, iFO.I, iDB.I, iDO.I)
	if iFB.I < 3*iFO.I {
		t.Errorf("browsing I_front (%v) should dwarf ordering's (%v)", iFB.I, iFO.I)
	}
	if iDB.I < 2*iDO.I {
		t.Errorf("browsing I_db (%v) should exceed ordering's (%v)", iDB.I, iDO.I)
	}

	// Bottleneck switch: windows where DB utilization exceeds front's by
	// 20 points occur regularly under browsing, rarely under ordering.
	switchFraction := func(r *ResultN) float64 {
		front, db := r.TierUtil1s[0], r.TierUtil1s[1]
		n := 0
		for i := range db {
			if db[i] > front[i]+0.2 {
				n++
			}
		}
		return float64(n) / float64(len(db))
	}
	sb, so := switchFraction(browsing), switchFraction(ordering)
	t.Logf("bottleneck-switch fraction: browsing %.3f vs ordering %.3f", sb, so)
	if sb < 0.05 {
		t.Errorf("browsing switch fraction = %v, want >= 0.05", sb)
	}
	if so > sb/2 {
		t.Errorf("ordering switch fraction %v should be well below browsing %v", so, sb)
	}
}

func TestDBQueueSpikesUnderBrowsing(t *testing.T) {
	// Fig. 6(a): the DB queue under browsing holds few jobs most of the
	// time but spikes toward the EB count during contention epochs.
	res := shortRun(t, BrowsingMix(), 100, 13, true)
	lo, hi := math.Inf(1), 0.0
	for _, q := range res.TierQueueLen1s[1] {
		if q < lo {
			lo = q
		}
		if q > hi {
			hi = q
		}
	}
	if hi < 40 {
		t.Errorf("max DB queue = %v, want spikes toward 100 EBs", hi)
	}
	if lo > 10 {
		t.Errorf("min DB queue = %v, want quiet periods", lo)
	}
}

func TestBestSellerDominatesSpikes(t *testing.T) {
	// Fig. 7(a): Best Seller in-system counts spike with the DB queue.
	res := shortRun(t, BrowsingMix(), 100, 17, true)
	maxBS := 0.0
	for _, v := range res.InSystem1s[BestSellers] {
		if v > maxBS {
			maxBS = v
		}
	}
	// Best Seller is ~11% of traffic; spikes far beyond that share
	// indicate the contention pile-up.
	if maxBS < 20 {
		t.Errorf("max BestSellers in system = %v, want pile-up during contention", maxBS)
	}
	// Correlation between BestSellers in-system and DB queue length
	// should be strongly positive.
	corr := seriesCorrelation(res.InSystem1s[BestSellers], res.TierQueueLen1s[1])
	if corr < 0.5 {
		t.Errorf("BestSellers/DB-queue correlation = %v, want > 0.5", corr)
	}
}

func seriesCorrelation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	ma, mb, va, vb, cov := 0.0, 0.0, 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		va += da * da
		vb += db * db
		cov += da * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func TestMeanServiceTimesEstimable(t *testing.T) {
	res := shortRun(t, BrowsingMix(), 75, 21, false)
	sf, err := res.TierSamples[0].MeanServiceTime()
	if err != nil {
		t.Fatal(err)
	}
	sd, err := res.TierSamples[1].MeanServiceTime()
	if err != nil {
		t.Fatal(err)
	}
	// Calibrated demands: front ~7-8 ms, DB ~4-5 ms per transaction.
	if sf < 0.003 || sf > 0.015 {
		t.Errorf("front mean service = %v, want few ms", sf)
	}
	if sd < 0.002 || sd > 0.012 {
		t.Errorf("db mean service = %v, want few ms", sd)
	}
}

func TestPerTypeSharesMatchMix(t *testing.T) {
	res := shortRun(t, OrderingMix(), 60, 25, false)
	mix := OrderingMix()
	for tt := Transaction(0); tt < NumTransactions; tt++ {
		got := float64(res.CompletedByType[tt]) / float64(res.Completed)
		want := mix.Weights[tt]
		if math.Abs(got-want) > 0.05+0.35*want {
			t.Errorf("completed share of %v = %.4f, mix weight %.4f", tt, got, want)
		}
	}
}

func TestHigherThinkTimeLowersThroughput(t *testing.T) {
	// Zestim = 7 s runs (Section 4.2) have far lower throughput than
	// Z = 0.5 s at the same EB count.
	fast, err := runTwoTier(t, ConfigN{Mix: BrowsingMix(), EBs: 50, ThinkTime: 0.5, Seed: 3, Duration: 600, Warmup: 60, Cooldown: 30})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := runTwoTier(t, ConfigN{Mix: BrowsingMix(), EBs: 50, ThinkTime: 7, Seed: 3, Duration: 600, Warmup: 60, Cooldown: 30})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Throughput > fast.Throughput/3 {
		t.Errorf("Z=7 throughput %v should be far below Z=0.5 throughput %v",
			slow.Throughput, fast.Throughput)
	}
	// Z=7s at 50 EBs: X ~ 50/7 ~ 7/s, utilizations low.
	if slow.AvgUtil[0] > 0.2 {
		t.Errorf("Z=7 front utilization = %v, want light load", slow.AvgUtil[0])
	}
}

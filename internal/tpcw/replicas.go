package tpcw

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// ReplicaResult aggregates R independently seeded runs of one ConfigN:
// headline metrics as mean ± 95% confidence half-width across replicas,
// plus per-tier monitoring streams pooled for the estimation pipeline.
type ReplicaResult struct {
	// Config is the (defaulted) configuration every replica ran.
	Config ConfigN
	// Seeds[r] is the seed replica r ran with, derived deterministically
	// from Config.Seed — the same root seed always produces the same
	// replica family regardless of worker count.
	Seeds []int64
	// Results[r] is replica r's full result.
	Results []*ResultN

	// Throughput and MeanResponse are across-replica summaries (Student-t
	// 95% confidence intervals).
	Throughput   stats.Interval
	MeanResponse stats.Interval
	// AvgUtil[i] summarizes tier i's mean utilization across replicas.
	AvgUtil []stats.Interval

	// TierSamples[i] is tier i's coarse (U_k, n_k) stream with the
	// replicas' measurement windows concatenated in replica order —
	// the input shape inference.CharacterizeAll consumes. Busy-window
	// statistics over the concatenation treat the replica boundaries as
	// ordinary sample boundaries, which is the standard pooling for
	// independent segments.
	TierSamples []trace.UtilizationSamples
	// TierNames labels the per-tier slices.
	TierNames []string

	// ClassNames labels the workload classes (Config.Classes order).
	// ClassThroughput[c] and ClassMeanResponse[c] summarize class c's
	// end-to-end rate and mean response across replicas; ClassTierSamples
	// [c][i] pools class c's tier-i measurement stream across replicas the
	// same way TierSamples does.
	ClassNames        []string
	ClassThroughput   []stats.Interval
	ClassMeanResponse []stats.Interval
	ClassTierSamples  [][]trace.UtilizationSamples
}

// ReplicaProgress observes a replica set: it is called once per completed
// replica with the number done so far and the total. Calls are serialized
// (a mutex guards them) but arrive from worker goroutines, so callbacks
// must not assume a particular goroutine.
type ReplicaProgress func(done, total int)

// RunReplicasCtx executes replicas independently seeded copies of cfg
// across at most workers goroutines (GOMAXPROCS when workers <= 0) and
// aggregates their results. Replica seeds derive from cfg.Seed via a
// dedicated stream, so results are fully deterministic and invariant to
// the worker count: only the assignment of replicas to goroutines
// changes, never a replica's seed or its slot in the output.
//
// progress (nil to disable) observes replica completions. When ctx is
// canceled, in-flight replicas stop within a few thousand simulated
// events, every worker goroutine drains, and the call returns ctx.Err().
func RunReplicasCtx(ctx context.Context, cfg ConfigN, replicas, workers int, progress ReplicaProgress) (*ReplicaResult, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("tpcw: replicas %d must be >= 1", replicas)
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > replicas {
		workers = replicas
	}

	seedSrc := xrand.New(cfg.Seed)
	seeds := make([]int64, replicas)
	for i := range seeds {
		seeds[i] = seedSrc.Int63()
	}

	results := make([]*ResultN, replicas)
	errs := make([]error, replicas)
	var next int64
	var progressMu sync.Mutex
	done := 0 // guarded by progressMu so reported counts stay monotonic
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= replicas {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue // keep claiming slots so wg drains fast
				}
				// cfg was deep-copied by WithDefaults above; the per-
				// replica copy only diverges in its seed.
				c := cfg
				c.Seed = seeds[i]
				results[i], errs[i] = RunNCtx(ctx, c)
				if errs[i] == nil && progress != nil {
					progressMu.Lock()
					done++
					progress(done, replicas)
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tpcw: replica %d (seed %d): %w", i, seeds[i], err)
		}
	}

	k := len(cfg.Tiers)
	rr := &ReplicaResult{
		Config:    cfg,
		Seeds:     seeds,
		Results:   results,
		TierNames: results[0].TierNames,
		AvgUtil:   make([]stats.Interval, k),
	}
	xs := make([]float64, replicas)
	for r, res := range results {
		xs[r] = res.Throughput
	}
	rr.Throughput = stats.MeanCI95(xs)
	for r, res := range results {
		xs[r] = res.MeanResponse
	}
	rr.MeanResponse = stats.MeanCI95(xs)
	for i := 0; i < k; i++ {
		for r, res := range results {
			xs[r] = res.AvgUtil[i]
		}
		rr.AvgUtil[i] = stats.MeanCI95(xs)
	}
	rr.TierSamples = make([]trace.UtilizationSamples, k)
	for i := 0; i < k; i++ {
		pooled := trace.UtilizationSamples{PeriodSeconds: cfg.MonitorPeriod}
		for _, res := range results {
			pooled.Utilization = append(pooled.Utilization, res.TierSamples[i].Utilization...)
			pooled.Completions = append(pooled.Completions, res.TierSamples[i].Completions...)
		}
		rr.TierSamples[i] = pooled
	}
	nc := len(results[0].ClassNames)
	rr.ClassNames = append([]string(nil), results[0].ClassNames...)
	rr.ClassThroughput = make([]stats.Interval, nc)
	rr.ClassMeanResponse = make([]stats.Interval, nc)
	rr.ClassTierSamples = make([][]trace.UtilizationSamples, nc)
	for c := 0; c < nc; c++ {
		for r, res := range results {
			xs[r] = res.ClassThroughput[c]
		}
		rr.ClassThroughput[c] = stats.MeanCI95(xs)
		for r, res := range results {
			xs[r] = res.ClassMeanResponse[c]
		}
		rr.ClassMeanResponse[c] = stats.MeanCI95(xs)
		rr.ClassTierSamples[c] = make([]trace.UtilizationSamples, k)
		for i := 0; i < k; i++ {
			pooled := trace.UtilizationSamples{PeriodSeconds: cfg.MonitorPeriod}
			for _, res := range results {
				pooled.Utilization = append(pooled.Utilization, res.ClassTierSamples[c][i].Utilization...)
				pooled.Completions = append(pooled.Completions, res.ClassTierSamples[c][i].Completions...)
			}
			rr.ClassTierSamples[c][i] = pooled
		}
	}
	return rr, nil
}

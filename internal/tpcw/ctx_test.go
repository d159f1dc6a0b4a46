package tpcw

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func quickConfig(t *testing.T) ConfigN {
	t.Helper()
	tiers, err := DefaultTiers(ShoppingMix(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return ConfigN{
		Mix: ShoppingMix(), Tiers: tiers,
		EBs: 15, ThinkTime: 0.5, Seed: 31,
		Duration: 300, Warmup: 30, Cooldown: 15,
	}
}

// TestRunNCtxCanceledMidRun cancels a single simulation shortly after it
// starts and expects a prompt ctx.Err().
func TestRunNCtxCanceledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	cfg := quickConfig(t)
	cfg.Duration = 1e6 // would take minutes uncanceled
	cfg.Warmup, cfg.Cooldown = 0, 0
	start := time.Now()
	_, err := RunNCtx(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunNCtx returned %v, want context.Canceled", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancellation was not prompt")
	}
}

// TestRunReplicasCtxCanceled cancels a replica set after the first
// completion and checks that every worker goroutine drains.
func TestRunReplicasCtxCanceled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var calls int64
	_, err := RunReplicasCtx(ctx, quickConfig(t), 8, 2, func(done, total int) {
		atomic.AddInt64(&calls, 1)
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunReplicasCtx returned %v, want context.Canceled", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked: %d vs baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunReplicasCtxProgress counts progress callbacks on an uncanceled
// run: exactly one per replica, with a final (total, total) call.
func TestRunReplicasCtxProgress(t *testing.T) {
	var calls int64
	var sawFinal atomic.Bool
	rr, err := RunReplicasCtx(context.Background(), quickConfig(t), 3, 2, func(done, total int) {
		atomic.AddInt64(&calls, 1)
		if done == total {
			sawFinal.Store(true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 3 {
		t.Fatalf("progress called %d times, want 3", got)
	}
	if !sawFinal.Load() {
		t.Fatal("no (total, total) progress call")
	}
	if len(rr.Results) != 3 {
		t.Fatalf("replica results %d", len(rr.Results))
	}
}

// TestRunReplicasCtxMatchesLegacy: every replica is exactly a single
// RunNCtx run at its derived seed, whichever worker ran it.
func TestRunReplicasCtxMatchesLegacy(t *testing.T) {
	cfg := quickConfig(t)
	rr, err := RunReplicasCtx(context.Background(), cfg, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r, seed := range rr.Seeds {
		c := cfg
		c.Seed = seed
		single, err := RunNCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if single.Throughput != rr.Results[r].Throughput || single.Completed != rr.Results[r].Completed {
			t.Fatalf("replica %d diverges from a single run at seed %d: X %v vs %v",
				r, seed, rr.Results[r].Throughput, single.Throughput)
		}
	}
}

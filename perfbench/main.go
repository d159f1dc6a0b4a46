// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time, checks the program's outputs, and prints its metrics
// as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload exact-grid --seed 1 --seconds 20 --trace 0
//
// Workloads: exact-grid, decomp-wide, service-mix and measure-loop (see
// BENCHMARK.json and perfbench/README.md). With --trace 0 it reports the
// end-to-end metrics of untraced passes; with --trace 1 it runs the same
// work once untraced and once traced, one cell or query at a time, and
// reports the per-layer metrics of the traced pass. Run it from the
// repository root: inputs are read from examples/ and perfbench/data/,
// and spans and the service spool are written under .bench_build/.
//
// perfbench -gen-refs rewrites perfbench/data/refs.json, the committed
// reference throughputs the accuracy metrics are measured against.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runBudget bounds one benchmark process: it must exit well within the
// 180 s a run may take, including its set-up.
const runBudget = 170 * time.Second

// setupReps is how many times the input-preparation step of set-up is
// repeated; setup_s reports its median plus the one warm-up pass.
const setupReps = 3

// maxUnattributed is the layer-sum check: the share of the traced wall
// time that no layer span may exceed.
const maxUnattributed = 0.05

// workDir holds everything a run writes (spans, the service spool),
// inside the checkout the benchmark runs from.
const workDir = ".bench_build"

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run (--trace 0), every one
// reported by every workload. The names and units match BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"x_max_rel_err", "ratio"},
}

// perLayer lists the metrics of a traced run (--trace 1). A workload
// that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"core.cell_p50_s", "s"},
	{"core.cell_max_s", "s"},
	{"core.pool_efficiency", "ratio"},
	{"memo.hit_ratio", "ratio"},
	{"memo.solve_misses", "count"},
	{"memo.evictions", "count"},
	{"memo.bytes", "bytes"},
	{"markov.fits", "count"},
	{"markov.fit_s", "s"},
	{"inference.samples", "count"},
	{"inference.characterize_s", "s"},
	{"mapqn.exact_s", "s"},
	{"mapqn.exact_states", "count"},
	{"mapqn.exact_iterations", "count"},
	{"mapqn.exact_ns_per_state_iter", "ns"},
	{"mapqn.exact_alloc_mb", "MB"},
	{"mapqn.decomp_s", "s"},
	{"mapqn.decomp_iterations", "count"},
	{"mapqn.decomp_alloc_mb", "MB"},
	{"mapqn.decomp_failed", "count"},
	{"mapqn.decomp_max_rel_err", "ratio"},
	{"mapqn.bounds_s", "s"},
	{"mva.solve_s", "s"},
	{"tpcw.sim_s", "s"},
	{"tpcw.txn", "count"},
	{"tpcw.txn_per_s", "1/s"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.stream_tail_ms", "ms"},
	{"service.refused", "count"},
	{"service.refollows", "count"},
	{"service.repeat_p50_ms", "ms"},
	{"service.novel_p50_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// passResult is what one pass over a workload's operations (suite cells,
// service queries, or measure-loop populations) produced.
type passResult struct {
	ops      int           // operations attempted
	ok       int           // operations that succeeded
	failed   int           // failures outside the workload's documented set
	retried  int           // operations that had to be repeated to succeed
	wall     time.Duration // time the operations took, checks excluded
	allocMB  float64       // Go heap bytes they allocated, in MiB
	opLat    []opLatency   // per-operation latency
	xErr     float64       // x_max_rel_err of this pass
	problems []string      // failed correctness checks
}

// opLatency is one operation's latency. Operations that every pass
// repeats (a suite cell, a measure-loop population) carry a key; each
// keyed operation's latency is its median over the run's passes.
type opLatency struct {
	key string
	d   time.Duration
}

// timed runs a pass's operations and records their wall time and
// allocation; checking the outputs afterwards stays out of both.
func (p *passResult) timed(ops func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	ops()
	p.wall = time.Since(t)
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
}

func (p *passResult) problemf(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// counters collects per-layer counts a traced pass measures besides its
// spans, keyed by per-layer metric name.
type counters map[string]float64

// workload is one benchmark workload.
type workload interface {
	// prepare builds the workload's inputs from the seed, starting the
	// daemon where there is one; set-up repeats it.
	prepare(ctx context.Context) error
	// warmup runs one untimed pass.
	warmup(ctx context.Context) error
	// pass runs measured pass i, timing its operations with
	// passResult.timed.
	pass(ctx context.Context, i int) (passResult, error)
	// layered runs the per-layer pass: one cell or query at a time, with
	// spans recorded into tr, or untraced when tr is nil.
	layered(ctx context.Context, tr *tracer, c counters) (passResult, error)
	close() error
}

func main() {
	name := flag.String("workload", "", "workload: exact-grid, decomp-wide, service-mix or measure-loop")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	genRefs := flag.Bool("gen-refs", false, "regenerate perfbench/data/refs.json and exit")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	if *genRefs {
		if err := generateRefs(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(ctx, *name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "exact-grid":
		return newExactGrid(), nil
	case "decomp-wide":
		return newDecompWide(), nil
	case "service-mix":
		return newServiceMix(seed), nil
	case "measure-loop":
		return newMeasureLoop(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, name string, seed int64, seconds int, traced bool) (err error) {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be >= 1", seconds)
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	env := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	envJSON, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Printf("env %s\n", envJSON)

	var prep []time.Duration
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := w.prepare(ctx); err != nil {
			return fmt.Errorf("%s: prepare: %w", name, err)
		}
		prep = append(prep, time.Since(t))
	}
	t := time.Now()
	if err := w.warmup(ctx); err != nil {
		return fmt.Errorf("%s: warm-up: %w", name, err)
	}
	setup := median(prep) + time.Since(t)

	var res result
	if traced {
		res, err = runTraced(ctx, w, env)
	} else {
		res, err = runTimed(ctx, w, seconds, setup)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(out))
	return nil
}

// runTimed measures untraced passes until the run time is spent (at
// least two, so every run has a median) and reports end-to-end metrics.
func runTimed(ctx context.Context, w workload, seconds int, setup time.Duration) (result, error) {
	var walls []time.Duration
	var lats []opLatency
	var allocs, xErrs []float64
	var ops, ok, failed, retried int
	var problems []string
	// The peak resident set is counted from here, leaving out set-up.
	resetPeakRSS()
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < time.Duration(seconds)*time.Second; i++ {
		// Every pass starts from the same collected heap, returned to the
		// system, so that passes do not inherit each other's garbage.
		debug.FreeOSMemory()
		pr, err := w.pass(ctx, i)
		if err != nil {
			return result{}, fmt.Errorf("pass %d: %w", i, err)
		}
		walls = append(walls, pr.wall)
		allocs = append(allocs, pr.allocMB)
		xErrs = append(xErrs, pr.xErr)
		lats = append(lats, pr.opLat...)
		ops, ok, failed, retried = ops+pr.ops, ok+pr.ok, failed+pr.failed, retried+pr.retried
		problems = append(problems, pr.problems...)
	}
	opTimes := reduceOps(lats)
	m := map[string]float64{
		"setup_s":       setup.Seconds(),
		"wall_s":        median(walls).Seconds(),
		"alloc_mb":      medianF(allocs),
		"peak_rss_mb":   peakRSSMB(),
		"success_rate":  float64(ok) / float64(ops),
		"op_p50_ms":     ms(percentile(opTimes, 50)),
		"op_p99_ms":     ms(percentile(opTimes, 99)),
		"x_max_rel_err": medianF(xErrs),
	}
	fmt.Printf("pass walls (s):")
	for _, d := range walls {
		fmt.Printf(" %.3f", d.Seconds())
	}
	fmt.Println()
	fmt.Printf("passes %d, operations %d (%d ok, %d unexpected failures, %d retries), latency samples %d\n",
		len(walls), ops, ok, failed, retried, len(opTimes))
	return finish(endToEnd, m, ops, failed, problems), nil
}

// runTraced runs the per-layer pass untraced, then traced, and reports
// per-layer metrics from the traced spans and counters.
func runTraced(ctx context.Context, w workload, env map[string]any) (result, error) {
	t := time.Now()
	ref, err := w.layered(ctx, nil, counters{})
	if err != nil {
		return result{}, fmt.Errorf("untraced layer pass: %w", err)
	}
	untraced := time.Since(t)

	c := counters{}
	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pr, err := w.layered(ctx, tr, c)
	wall := tr.finish()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return result{}, fmt.Errorf("traced layer pass: %w", err)
	}

	self := tr.layerSelf()
	m := map[string]float64{}
	for k, v := range c {
		m[k] = v
	}
	cells := tr.durations("core.cell")
	if len(cells) > 0 {
		m["core.cell_p50_s"] = median(cells).Seconds()
		m["core.cell_max_s"] = percentile(cells, 100).Seconds()
	}
	m["markov.fits"] = float64(len(tr.durations("markov.fit")))
	m["markov.fit_s"] = self["markov"].Seconds()
	m["inference.characterize_s"] = self["inference"].Seconds()
	m["mapqn.exact_s"] = self["mapqn.exact"].Seconds()
	if si := c["mapqn.exact_state_iters"]; si > 0 {
		m["mapqn.exact_ns_per_state_iter"] = float64(self["mapqn.exact"].Nanoseconds()) / si
	}
	delete(m, "mapqn.exact_state_iters")
	m["mapqn.decomp_s"] = self["mapqn.decomp"].Seconds()
	m["mapqn.bounds_s"] = self["mapqn.bounds"].Seconds()
	m["mva.solve_s"] = self["mva"].Seconds()
	m["tpcw.sim_s"] = self["tpcw"].Seconds()
	if s := self["tpcw"].Seconds(); s > 0 {
		m["tpcw.txn_per_s"] = c["tpcw.txn"] / s
	}
	if sub := tr.durations("service.submit"); len(sub) > 0 {
		m["service.submit_ms"] = ms(median(sub))
	}
	m["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	m["trace.unattributed_frac"] = self[rootLayer].Seconds() / wall.Seconds()
	m["trace.overhead_frac"] = wall.Seconds()/untraced.Seconds() - 1

	problems := append(ref.problems, pr.problems...)
	if f := m["trace.unattributed_frac"]; f > maxUnattributed {
		problems = append(problems, fmt.Sprintf("layer-sum check: %.1f%% of the traced wall time is outside every layer span (limit %.0f%%)", 100*f, 100*maxUnattributed))
	}
	fmt.Printf("traced wall %.3f s, untraced %.3f s; layer self times:", wall.Seconds(), untraced.Seconds())
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf(" %s=%.4fs", l, self[l].Seconds())
	}
	fmt.Println()
	path, err := tr.write(workDir+"/perfbench-traces", fmt.Sprintf("%s-seed%d.json", env["workload"], env["seed"]), env)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return finish(perLayer, m, ref.ops+pr.ops, ref.failed+pr.failed, problems), nil
}

// finish assembles the result in the order of defs, printing one line
// per metric and every failed check.
func finish(defs []metricDef, m map[string]float64, ops, failed int, problems []string) result {
	res := result{Correct: len(problems) == 0, Attempted: ops, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", d.name, v))
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	return res
}

// reduceOps turns the run's operation latencies into latency samples:
// one per unkeyed operation, and the median over passes for each keyed
// one.
func reduceOps(lats []opLatency) []time.Duration {
	var out []time.Duration
	byKey := map[string][]time.Duration{}
	var keys []string
	for _, l := range lats {
		if l.key == "" {
			out = append(out, l.d)
			continue
		}
		if _, seen := byKey[l.key]; !seen {
			keys = append(keys, l.key)
		}
		byKey[l.key] = append(byKey[l.key], l.d)
	}
	for _, k := range keys {
		out = append(out, median(byKey[k]))
	}
	return out
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile(ds []time.Duration, p float64) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(percentileF(fs, p))
}

func medianF(xs []float64) float64 { return percentileF(xs, 50) }

func percentileF(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// resetPeakRSS restarts the kernel's peak resident set size count
// (Linux 4.0 and later), so that peakRSSMB reports the peak since then.
func resetPeakRSS() {
	// Where the reset is unavailable, the peak covers the run so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (Linux VmHWM);
// elsewhere it falls back to the memory the Go runtime obtained.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				var kb float64
				if _, err := fmt.Sscan(f[1], &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// relErr is |x - ref| / ref.
func relErr(x, ref float64) float64 { return math.Abs(x-ref) / ref }

var errNoRef = errors.New("no committed reference")

package tpcw

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/monitor"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// ZeroWindow is a sentinel for ConfigN.Warmup / ConfigN.Cooldown meaning
// "exactly zero seconds". A literal 0 in those fields means unset and is
// replaced by the default (120 s warm-up, 60 s cool-down); any negative
// value is normalized to an explicit zero-length window.
const ZeroWindow = -1.0

// TierDemand describes the load one transaction type places on one tier:
// a per-pass service demand distribution and the number of sequential
// passes (e.g., database queries) the transaction makes at the tier.
type TierDemand struct {
	// Mean is the mean CPU seconds consumed per pass at nominal speed.
	Mean float64
	// SCV is the squared coefficient of variation of per-pass demand
	// (>= 1; zero defaults to 1, i.e. exponential).
	SCV float64
	// MinPasses and MaxPasses bound the number of sequential passes the
	// transaction makes at this tier (uniformly distributed). Both zero
	// default to exactly one pass.
	MinPasses, MaxPasses int
	// ContentionWeight scales the probability that a pass of this type
	// starts a contention epoch at this tier (see ContentionParams).
	ContentionWeight float64
}

// TierConfig is one tier of an N-tier testbed: a named PS server with its
// own Markov-modulated contention environment and per-transaction demand
// profile.
type TierConfig struct {
	// Name labels the tier ("front", "app", "db", ...). Empty names get
	// positional defaults (front, app..., db).
	Name string
	// Contention configures the tier's slowdown environment. Zero disables.
	Contention ContentionParams
	// Demands holds the per-transaction demand profile of the tier.
	Demands [NumTransactions]TierDemand
}

// resolveTierNames returns every tier's label, substituting positional
// defaults. The convention must stay in sync with core's tierNames so
// simulator tier labels and planner/report labels agree by default
// (cross-validation threads the simulator's names through explicitly).
func resolveTierNames(tiers []TierConfig) []string {
	k := len(tiers)
	names := make([]string, k)
	for i, t := range tiers {
		if t.Name != "" {
			names[i] = t.Name
			continue
		}
		switch {
		case k == 1:
			names[i] = "server"
		case i == 0:
			names[i] = "front"
		case i == k-1:
			names[i] = "db"
		case k == 3:
			names[i] = "app"
		default:
			names[i] = fmt.Sprintf("app%d", i)
		}
	}
	return names
}

// ConfigN parameterizes one testbed run, mirroring the paper's
// experimental settings (Section 3.1-3.2) over an arbitrary tandem of PS
// tiers; DefaultTiers(mix, 2) is the paper's front+DB deployment.
// Transactions visit tiers in slice order (tier 0 first, the database
// last), making MinPasses..MaxPasses sequential passes at each tier
// before moving on.
type ConfigN struct {
	// Mix supplies the transaction mix weights driving the CBMG. The
	// mix's FrontContention/DBContention fields are ignored here: each
	// tier carries its own ContentionParams.
	Mix Mix
	// Tiers are the service tiers in visit order.
	Tiers []TierConfig
	// EBs is the number of emulated browsers (concurrent sessions).
	EBs int
	// ThinkTime is the mean exponential user think time Z in seconds.
	ThinkTime float64
	// Duration is the simulated run length in seconds.
	Duration float64
	// Warmup and Cooldown are the head/tail seconds excluded from
	// analysis. Zero means unset (defaults 120/60 s); use ZeroWindow (or
	// any negative value) for an explicitly empty window. Both must be
	// whole multiples of MonitorPeriod so the measurement window aligns
	// with sample boundaries.
	Warmup, Cooldown float64
	// MonitorPeriod is the coarse measurement window W in seconds.
	MonitorPeriod float64
	// Seed makes the run reproducible.
	Seed int64
	// StructureWeight blends CBMG structure against mix weights
	// (default 0.35).
	StructureWeight float64
	// TrackSeries enables the 1-second time series (per-tier utilization
	// and queue length, per-type in-system counts).
	TrackSeries bool
	// Classes groups transaction types into workload classes for the
	// per-class measurement streams (ResultN.ClassTierSamples and the
	// per-class throughput/response columns). Empty uses DefaultClasses
	// (browsing/ordering). Classes must partition the transaction set.
	Classes []WorkloadClass
}

// defaultWindow resolves a Warmup/Cooldown field: 0 is unset, negative is
// the explicit-zero sentinel.
func defaultWindow(v, def float64) float64 {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// WithDefaults returns the configuration with unset fields replaced by
// the testbed defaults. The Tiers slice is deep-copied so the returned
// config shares no mutable state with the input (RunReplicasCtx runs many
// copies concurrently).
func (c ConfigN) WithDefaults() ConfigN {
	if c.ThinkTime == 0 {
		c.ThinkTime = 0.5
	}
	if c.Duration == 0 {
		c.Duration = 1800
	}
	c.Warmup = defaultWindow(c.Warmup, 120)
	c.Cooldown = defaultWindow(c.Cooldown, 60)
	if c.MonitorPeriod == 0 {
		c.MonitorPeriod = 5
	}
	if c.StructureWeight == 0 {
		c.StructureWeight = 0.35
	}
	tiers := make([]TierConfig, len(c.Tiers))
	copy(tiers, c.Tiers)
	for i := range tiers {
		for t := range tiers[i].Demands {
			d := &tiers[i].Demands[t]
			if d.SCV == 0 {
				d.SCV = 1
			}
			if d.MinPasses == 0 && d.MaxPasses == 0 {
				d.MinPasses, d.MaxPasses = 1, 1
			}
		}
	}
	c.Tiers = tiers
	if len(c.Classes) == 0 {
		c.Classes = DefaultClasses()
	} else {
		classes := make([]WorkloadClass, len(c.Classes))
		for i, cls := range c.Classes {
			classes[i] = WorkloadClass{
				Name:  cls.Name,
				Types: append([]Transaction(nil), cls.Types...),
			}
		}
		c.Classes = classes
	}
	return c
}

// windowPeriods converts a trim window into a whole number of monitoring
// periods, rounding up so that no excluded second can leak into the
// analyzed samples when the window is not an exact multiple of the period.
func windowPeriods(window, period float64) int {
	if window <= 0 {
		return 0
	}
	return int(math.Ceil(window/period - 1e-9))
}

// checkWindowAligned verifies that a trim window is a whole multiple of
// the monitoring period (within floating-point tolerance).
func checkWindowAligned(name string, window, period float64) error {
	if window <= 0 {
		return nil
	}
	k := math.Round(window / period)
	if math.Abs(window-k*period) > 1e-9*period {
		return fmt.Errorf("tpcw: %s %v s is not a whole multiple of the monitor period %v s; "+
			"align it so warm-up/cool-down trimming falls on sample boundaries", name, window, period)
	}
	return nil
}

// Validate checks the configuration. Call WithDefaults first when
// validating a configuration with unset fields.
func (c ConfigN) Validate() error {
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if len(c.Tiers) == 0 {
		return errors.New("tpcw: config has no tiers")
	}
	names := resolveTierNames(c.Tiers)
	for i, tier := range c.Tiers {
		if err := tier.Contention.Validate(); err != nil {
			return fmt.Errorf("tpcw: tier %s: %w", names[i], err)
		}
		for t, d := range tier.Demands {
			if d.Mean <= 0 || math.IsNaN(d.Mean) {
				return fmt.Errorf("tpcw: tier %s demand for %v: mean %v must be > 0", names[i], Transaction(t), d.Mean)
			}
			if d.SCV < 1 {
				return fmt.Errorf("tpcw: tier %s demand for %v: SCV %v must be >= 1", names[i], Transaction(t), d.SCV)
			}
			if d.MinPasses < 1 || d.MaxPasses < d.MinPasses {
				return fmt.Errorf("tpcw: tier %s demand for %v: passes [%d,%d] invalid", names[i], Transaction(t), d.MinPasses, d.MaxPasses)
			}
			if d.ContentionWeight < 0 {
				return fmt.Errorf("tpcw: tier %s demand for %v: contention weight %v negative", names[i], Transaction(t), d.ContentionWeight)
			}
		}
	}
	if c.EBs < 1 {
		return fmt.Errorf("tpcw: EBs %d must be >= 1", c.EBs)
	}
	if c.ThinkTime <= 0 {
		return fmt.Errorf("tpcw: think time %v must be > 0", c.ThinkTime)
	}
	if c.Warmup+c.Cooldown >= c.Duration {
		return fmt.Errorf("tpcw: warmup %v + cooldown %v exceed duration %v",
			c.Warmup, c.Cooldown, c.Duration)
	}
	if c.MonitorPeriod <= 0 {
		return fmt.Errorf("tpcw: monitor period %v must be > 0", c.MonitorPeriod)
	}
	if err := checkWindowAligned("warmup", c.Warmup, c.MonitorPeriod); err != nil {
		return err
	}
	if err := checkWindowAligned("cooldown", c.Cooldown, c.MonitorPeriod); err != nil {
		return err
	}
	// Duration must align too: the monitors tick only up to the last
	// whole period, so a ragged duration would leave the sample stream
	// covering a different window than the throughput measurement.
	if err := checkWindowAligned("duration", c.Duration, c.MonitorPeriod); err != nil {
		return err
	}
	if len(c.Classes) > 0 {
		if err := validateClasses(c.Classes); err != nil {
			return err
		}
	}
	return nil
}

// ResultN holds everything an N-tier run produces, with one slice entry
// per tier (in visit order) for the per-tier measures.
type ResultN struct {
	Config ConfigN

	// Throughput is the transaction completion rate in the measurement
	// window (transactions/s).
	Throughput float64
	// MeanResponse and P95Response summarize end-to-end transaction
	// response times in the window.
	MeanResponse float64
	P95Response  float64

	// TierSamples[i] is tier i's coarse (U_k, n_k) measurement stream at
	// MonitorPeriod granularity, warm-up/cool-down trimmed. Completions
	// are counted per transaction (the last pass of a transaction at the
	// tier closes its phase there), matching the model abstraction.
	TierSamples []trace.UtilizationSamples
	// AvgUtil[i] is tier i's mean utilization in the window.
	AvgUtil []float64

	// TierUtil1s[i] and TierQueueLen1s[i] are tier i's 1-second
	// utilization and queue-length series (only when TrackSeries).
	TierUtil1s     [][]float64
	TierQueueLen1s [][]float64
	// InSystem1s[t] is the per-type in-system count series (TrackSeries).
	InSystem1s [NumTransactions][]float64

	// CompletedByType counts transactions completed in the window.
	CompletedByType [NumTransactions]int64
	// ThroughputByType[t] and MeanResponseByType[t] are transaction type
	// t's completion rate and mean end-to-end response in the window
	// (both zero for types that completed nothing).
	ThroughputByType   [NumTransactions]float64
	MeanResponseByType [NumTransactions]float64
	// Completed is the total transactions completed in the window.
	Completed int64

	// ClassNames labels the workload classes (Config.Classes order);
	// ClassThroughput[c] and ClassMeanResponse[c] are class c's completion
	// rate and mean end-to-end response in the window.
	ClassNames        []string
	ClassThroughput   []float64
	ClassMeanResponse []float64
	// ClassTierSamples[c][i] is class c's coarse measurement stream at
	// tier i: per-period completions of the class's transactions plus the
	// class's share of the tier's utilization, apportioned per period by
	// consumed nominal demand (so the classes sum to the tier's wall-clock
	// busy fraction, contention slowdown included).
	ClassTierSamples [][]trace.UtilizationSamples

	// ContentionFraction[i] is the share of simulated time tier i spent
	// in a contention epoch.
	ContentionFraction []float64
	// TierNames labels the per-tier slices.
	TierNames []string
}

// emulatedBrowser is one closed-loop client session.
type emulatedBrowser struct {
	id      int
	current Transaction
}

// txnStateN tracks one in-flight transaction through the tier chain.
type txnStateN struct {
	eb          *emulatedBrowser
	txType      Transaction
	submittedAt float64
	tier        int
	passesLeft  int
}

// engineN wires the routed multi-station pipeline: closed-loop emulated
// browsers over K PS tiers, each with an independent Markov-modulated
// contention environment driven through the station's SetSpeed hook.
type engineN struct {
	cfg ConfigN
	sim *des.Sim

	thinkSrc, navSrc, demandSrc, contSrc *xrand.Source
	cbmg                                 *CBMG

	stations []*des.PSStation
	envs     []*contentionEnv
	dists    [][NumTransactions]xrand.Hyper2
	txnCompl []int64
	inSystem [NumTransactions]int

	measureStart, measureEnd float64
	res                      *ResultN
	responses                []float64
	respSumByType            [NumTransactions]float64

	// Per-class accounting. classOf maps each transaction type to its
	// class index; classConsumed[i][c] is the cumulative nominal demand
	// class c's passes consumed at tier i; classTxnCompl[i][c] counts
	// class c's transaction-level completions at tier i (last pass closes
	// the phase, matching the tier monitors); classResponses[c] collects
	// in-window end-to-end responses. The sampler snapshots the cumulative
	// counters every monitor period (see sampleClasses).
	classOf        [NumTransactions]int
	classConsumed  [][]float64
	classTxnCompl  [][]int64
	classResponses [][]float64

	lastTierBusy      []float64
	lastClassConsumed [][]float64
	lastClassCompl    [][]int64
	classUtilSeries   [][][]float64 // [tier][class][period]
	classComplSeries  [][][]float64
}

func (e *engineN) inWindow() bool {
	now := e.sim.Now()
	return now >= e.measureStart && now < e.measureEnd
}

// submit starts a new transaction for eb at tier 0.
func (e *engineN) submit(eb *emulatedBrowser) {
	next := e.cbmg.Next(eb.current, e.navSrc)
	eb.current = next
	st := &txnStateN{eb: eb, txType: next, submittedAt: e.sim.Now()}
	e.inSystem[next]++
	e.enterTier(st, 0)
}

// enterTier draws the transaction's pass count for the tier and issues
// the first pass.
func (e *engineN) enterTier(st *txnStateN, tier int) {
	st.tier = tier
	d := e.cfg.Tiers[tier].Demands[st.txType]
	st.passesLeft = d.MinPasses
	if d.MaxPasses > d.MinPasses {
		st.passesLeft += e.demandSrc.Intn(d.MaxPasses - d.MinPasses + 1)
	}
	e.issuePass(st)
}

// issuePass sends the next pass of a transaction to its current tier.
func (e *engineN) issuePass(st *txnStateN) {
	tier := st.tier
	d := e.cfg.Tiers[tier].Demands[st.txType]
	e.envs[tier].maybeTrigger(d.ContentionWeight)
	e.stations[tier].Arrive(&des.Job{
		Class:  int(st.txType),
		Demand: e.dists[tier][st.txType].Sample(e.demandSrc),
		Ctx:    st,
	})
}

// onComplete handles a pass completion at the given tier: issue the next
// pass, advance to the next tier, or finish the transaction.
func (e *engineN) onComplete(tier int, j *des.Job) {
	st := j.Ctx.(*txnStateN)
	class := e.classOf[st.txType]
	e.classConsumed[tier][class] += j.Demand
	st.passesLeft--
	if st.passesLeft > 0 {
		e.issuePass(st)
		return
	}
	e.txnCompl[tier]++
	e.classTxnCompl[tier][class]++
	if tier+1 < len(e.stations) {
		e.enterTier(st, tier+1)
		return
	}
	// Transaction complete: record and return the EB to thinking.
	e.inSystem[st.txType]--
	if e.inWindow() {
		e.res.Completed++
		e.res.CompletedByType[st.txType]++
		resp := e.sim.Now() - st.submittedAt
		e.responses = append(e.responses, resp)
		e.respSumByType[st.txType] += resp
		e.classResponses[class] = append(e.classResponses[class], resp)
	}
	eb := st.eb
	e.sim.Schedule(e.thinkSrc.Exp(e.cfg.ThinkTime), func() { e.submit(eb) })
}

// sampleClasses snapshots the per-class cumulative counters at a monitor
// period boundary, apportioning each tier's wall-clock utilization over
// the classes by the nominal demand their passes consumed in the period.
// The split preserves contention inflation: the per-class utilizations
// always sum to the tier's sampled busy fraction, so pooling the class
// streams recovers the aggregate stream the single-class pipeline sees.
func (e *engineN) sampleClasses() {
	period := e.cfg.MonitorPeriod
	nc := len(e.cfg.Classes)
	for i := range e.stations {
		busy := e.stations[i].BusyTime()
		tierU := (busy - e.lastTierBusy[i]) / period
		e.lastTierBusy[i] = busy
		if tierU < 0 {
			tierU = 0
		}
		if tierU > 1 {
			tierU = 1
		}
		total := 0.0
		deltas := make([]float64, nc)
		for c := 0; c < nc; c++ {
			deltas[c] = e.classConsumed[i][c] - e.lastClassConsumed[i][c]
			e.lastClassConsumed[i][c] = e.classConsumed[i][c]
			total += deltas[c]
		}
		for c := 0; c < nc; c++ {
			u := 0.0
			if total > 0 {
				u = tierU * deltas[c] / total
			}
			e.classUtilSeries[i][c] = append(e.classUtilSeries[i][c], u)
			e.classComplSeries[i][c] = append(e.classComplSeries[i][c],
				float64(e.classTxnCompl[i][c]-e.lastClassCompl[i][c]))
			e.lastClassCompl[i][c] = e.classTxnCompl[i][c]
		}
	}
}

// RunNCtx executes one testbed experiment with cooperative cancellation:
// the event loop polls ctx every few thousand events and returns
// ctx.Err() when the context is done, discarding the partial run.
func RunNCtx(ctx context.Context, cfg ConfigN) (*ResultN, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := len(cfg.Tiers)
	names := resolveTierNames(cfg.Tiers)

	// Pre-build per-tier per-type demand distributions.
	dists := make([][NumTransactions]xrand.Hyper2, k)
	for i, tier := range cfg.Tiers {
		for t, d := range tier.Demands {
			h, err := xrand.NewHyper2(d.Mean, d.SCV)
			if err != nil {
				return nil, fmt.Errorf("tpcw: tier %s demand for %v: %w", names[i], Transaction(t), err)
			}
			dists[i][t] = h
		}
	}

	sim := des.NewSim()
	root := xrand.New(cfg.Seed)
	e := &engineN{
		cfg:       cfg,
		sim:       sim,
		thinkSrc:  root.Split(),
		navSrc:    root.Split(),
		demandSrc: root.Split(),
		contSrc:   root.Split(),
		cbmg:      NewCBMG(cfg.Mix, cfg.StructureWeight),
		dists:     dists,
		txnCompl:  make([]int64, k),
	}
	e.measureStart = cfg.Warmup
	e.measureEnd = cfg.Duration - cfg.Cooldown
	e.res = &ResultN{Config: cfg, TierNames: names}

	nc := len(cfg.Classes)
	e.classOf = classOfType(cfg.Classes)
	e.classConsumed = make([][]float64, k)
	e.classTxnCompl = make([][]int64, k)
	e.lastTierBusy = make([]float64, k)
	e.lastClassConsumed = make([][]float64, k)
	e.lastClassCompl = make([][]int64, k)
	e.classUtilSeries = make([][][]float64, k)
	e.classComplSeries = make([][][]float64, k)
	for i := 0; i < k; i++ {
		e.classConsumed[i] = make([]float64, nc)
		e.classTxnCompl[i] = make([]int64, nc)
		e.lastClassConsumed[i] = make([]float64, nc)
		e.lastClassCompl[i] = make([]int64, nc)
		e.classUtilSeries[i] = make([][]float64, nc)
		e.classComplSeries[i] = make([][]float64, nc)
	}
	e.classResponses = make([][]float64, nc)

	e.stations = make([]*des.PSStation, k)
	for i := range cfg.Tiers {
		i := i
		e.stations[i] = des.NewPSStation(sim, names[i], func(j *des.Job) { e.onComplete(i, j) })
	}
	e.envs = make([]*contentionEnv, k)
	for i := range cfg.Tiers {
		e.envs[i] = newContentionEnv(sim, e.stations[i], cfg.Tiers[i].Contention, e.contSrc)
	}

	// Monitoring: every tier view counts transaction-level completions
	// (the last pass of a transaction at the tier closes its phase), so
	// the inferred per-tier mean service time is per transaction — the
	// quantity the queueing model uses. Monitors and recorders carry the
	// run horizon so a drained simulation terminates.
	mons := make([]*monitor.StationMonitor, k)
	for i := range e.stations {
		view := &tierTransactionView{station: e.stations[i], txnCompletions: &e.txnCompl[i]}
		mons[i] = monitor.WatchUntil(sim, view, cfg.MonitorPeriod, cfg.Duration)
	}

	// Class sampler: same tick schedule as the tier monitors (period,
	// 2*period, ... up to the horizon inclusive), scheduled after them so
	// each boundary samples the tiers first. Ticks are read-only and draw
	// no randomness, so adding them leaves run results bit-identical.
	var classTick func()
	classTick = func() {
		e.sampleClasses()
		if next := sim.Now() + cfg.MonitorPeriod; next <= cfg.Duration {
			sim.Schedule(cfg.MonitorPeriod, classTick)
		}
	}
	if cfg.MonitorPeriod <= cfg.Duration {
		sim.Schedule(cfg.MonitorPeriod, classTick)
	}

	var utilRecs []*monitor.UtilizationRecorder
	var queueRecs []*monitor.SeriesRecorder
	var inSysRecs [NumTransactions]*monitor.SeriesRecorder
	if cfg.TrackSeries {
		utilRecs = make([]*monitor.UtilizationRecorder, k)
		for i := range e.stations {
			utilRecs[i] = monitor.RecordUtilizationUntil(sim, e.stations[i], 1, cfg.Duration)
		}
		queueRecs = make([]*monitor.SeriesRecorder, k)
		for i := range e.stations {
			st := e.stations[i]
			queueRecs[i] = monitor.RecordUntil(sim, 1, cfg.Duration, func() float64 { return float64(st.QueueLen()) })
		}
		for t := 0; t < NumTransactions; t++ {
			t := t
			inSysRecs[t] = monitor.RecordUntil(sim, 1, cfg.Duration, func() float64 { return float64(e.inSystem[t]) })
		}
	}

	// Launch the EBs: stagger initial think times to avoid a thundering
	// herd at t=0 (sessions are already active when measurement starts).
	for i := 0; i < cfg.EBs; i++ {
		eb := &emulatedBrowser{id: i, current: Home}
		sim.Schedule(e.thinkSrc.Exp(cfg.ThinkTime), func() { e.submit(eb) })
	}
	if err := sim.RunUntilCtx(ctx, cfg.Duration); err != nil {
		return nil, err
	}

	// Collect results.
	res := e.res
	window := e.measureEnd - e.measureStart
	res.Throughput = float64(res.Completed) / window
	if len(e.responses) > 0 {
		res.MeanResponse = stats.Mean(e.responses)
		p95, err := stats.Percentile(e.responses, 95)
		if err != nil {
			return nil, err
		}
		res.P95Response = p95
	}
	trimHead := windowPeriods(e.measureStart, cfg.MonitorPeriod)
	trimTail := windowPeriods(cfg.Cooldown, cfg.MonitorPeriod)
	res.TierSamples = make([]trace.UtilizationSamples, k)
	res.AvgUtil = make([]float64, k)
	res.ContentionFraction = make([]float64, k)
	for i := range mons {
		s, err := mons[i].Samples(trimHead, trimTail)
		if err != nil {
			return nil, fmt.Errorf("tpcw: %s monitor: %w", names[i], err)
		}
		res.TierSamples[i] = s
		res.AvgUtil[i] = stats.Mean(s.Utilization)
		res.ContentionFraction[i] = e.envs[i].contendedFraction(cfg.Duration)
	}
	for t := 0; t < NumTransactions; t++ {
		res.ThroughputByType[t] = float64(res.CompletedByType[t]) / window
		if n := res.CompletedByType[t]; n > 0 {
			res.MeanResponseByType[t] = e.respSumByType[t] / float64(n)
		}
	}
	res.ClassNames = make([]string, nc)
	res.ClassThroughput = make([]float64, nc)
	res.ClassMeanResponse = make([]float64, nc)
	res.ClassTierSamples = make([][]trace.UtilizationSamples, nc)
	for c := 0; c < nc; c++ {
		res.ClassNames[c] = cfg.Classes[c].Name
		res.ClassThroughput[c] = float64(len(e.classResponses[c])) / window
		if len(e.classResponses[c]) > 0 {
			res.ClassMeanResponse[c] = stats.Mean(e.classResponses[c])
		}
		res.ClassTierSamples[c] = make([]trace.UtilizationSamples, k)
		for i := 0; i < k; i++ {
			utils := e.classUtilSeries[i][c]
			counts := e.classComplSeries[i][c]
			n := len(utils)
			if trimHead+trimTail >= n {
				return nil, fmt.Errorf("tpcw: class %s tier %s: cannot trim %d+%d from %d samples",
					cfg.Classes[c].Name, names[i], trimHead, trimTail, n)
			}
			res.ClassTierSamples[c][i] = trace.UtilizationSamples{
				PeriodSeconds: cfg.MonitorPeriod,
				Utilization:   append([]float64(nil), utils[trimHead:n-trimTail]...),
				Completions:   append([]float64(nil), counts[trimHead:n-trimTail]...),
			}
		}
	}
	if cfg.TrackSeries {
		res.TierUtil1s = make([][]float64, k)
		res.TierQueueLen1s = make([][]float64, k)
		for i := range e.stations {
			res.TierUtil1s[i] = utilRecs[i].Values()
			res.TierQueueLen1s[i] = queueRecs[i].Values()
		}
		for t := 0; t < NumTransactions; t++ {
			res.InSystem1s[t] = inSysRecs[t].Values()
		}
	}
	if res.Completed == 0 {
		return nil, errors.New("tpcw: no transactions completed in measurement window")
	}
	return res, nil
}

// tierTransactionView adapts a tier station for monitoring: utilization
// comes from the station, completions are transaction-level (one count
// when the final pass of a transaction at the tier finishes), so the
// inferred mean service time is per transaction — the quantity the
// queueing model uses.
type tierTransactionView struct {
	station        *des.PSStation
	txnCompletions *int64
}

func (v *tierTransactionView) Arrive(*des.Job)    { panic("tpcw: monitoring view is read-only") }
func (v *tierTransactionView) QueueLen() int      { return v.station.QueueLen() }
func (v *tierTransactionView) BusyTime() float64  { return v.station.BusyTime() }
func (v *tierTransactionView) Completions() int64 { return *v.txnCompletions }

// DefaultTiers builds a K-tier testbed specification (K >= 2) from the
// default transaction profiles: tier 0 keeps the front-server demands and
// the mix's front contention, the last tier keeps the per-query database
// demands, query counts, and the mix's DB contention, and interior tiers
// are application servers whose per-type demand is 60% of the front
// demand with the same variability, a single pass, and no contention
// environment.
func DefaultTiers(mix Mix, k int) ([]TierConfig, error) {
	if k < 2 {
		return nil, fmt.Errorf("tpcw: DefaultTiers needs k >= 2, got %d", k)
	}
	tiers := make([]TierConfig, k)
	front, db := &tiers[0], &tiers[k-1]
	front.Contention, db.Contention = mix.FrontContention, mix.DBContention
	for t, p := range DefaultProfiles() {
		// Every type makes one front pass and can trigger front
		// contention with weight 1.
		front.Demands[t] = TierDemand{
			Mean: p.FrontDemand, SCV: p.FrontSCV,
			MinPasses: 1, MaxPasses: 1,
			ContentionWeight: 1,
		}
		for i := 1; i < k-1; i++ {
			tiers[i].Demands[t] = TierDemand{
				Mean:      0.6 * p.FrontDemand,
				SCV:       p.FrontSCV,
				MinPasses: 1, MaxPasses: 1,
			}
		}
		db.Demands[t] = TierDemand{
			Mean: p.QueryDemand, SCV: p.QuerySCV,
			MinPasses: p.MinQueries, MaxPasses: p.MaxQueries,
			ContentionWeight: p.ContentionWeight,
		}
	}
	return resolveNamesInto(tiers), nil
}

// resolveNamesInto fills empty tier names with their positional defaults.
func resolveNamesInto(tiers []TierConfig) []TierConfig {
	names := resolveTierNames(tiers)
	for i := range tiers {
		tiers[i].Name = names[i]
	}
	return tiers
}

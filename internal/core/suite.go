package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Suite is a declarative batch of scenarios: a base Scenario plus a Grid
// of parameter axes. Expansion crosses the axes deterministically into
// named, content-addressed cells; RunSuite executes them over a worker
// pool with stage memoization and streaming report sinks. A suite with
// an empty grid is exactly one Run of the base scenario.
type Suite struct {
	// Name labels the suite; cell names are derived from it.
	Name string `json:"name,omitempty"`
	// Base is the scenario every cell starts from.
	Base Scenario `json:"base"`
	// Grid declares the parameter axes (empty = the base cell only).
	Grid Grid `json:"grid,omitempty"`
	// Workers caps concurrently executing cells (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// OnError selects the failure policy: "" or "fail-fast" cancels the
	// suite on the first cell error (the historical behavior);
	// "continue" records failed cells (status, stage, class) and runs
	// every remaining cell to completion.
	OnError FailurePolicy `json:"on_error,omitempty"`
	// Retry bounds per-cell retries of transient errors with
	// deterministic exponential backoff. The zero value never retries.
	Retry RetryPolicy `json:"retry,omitempty"`

	// Skip lists content hashes of cells not to execute — typically the
	// completed rows of a resumed output file (ReadJSONLHashes). Never
	// serialized.
	Skip map[string]bool `json:"-"`
	// Inject, when non-nil, is called before every pipeline stage of
	// every cell with (cell hash, stage) — the deterministic
	// fault-injection point the facade's cell runner threads through the
	// scenario pipeline. Production runs leave it nil. Never serialized.
	Inject FaultHook `json:"-"`
	// OnProgress, when non-nil, observes suite execution. Calls are
	// serialized. Never serialized to JSON.
	OnProgress SuiteProgressFunc `json:"-"`
	// FooterStats, when non-nil, is called once after the last cell of a
	// successfully completed run; its MemoStats are written to the sinks
	// as a trailing footer row (status "footer") together with the
	// run's cell totals. Aborted runs write no footer, so a footer's
	// presence marks a JSONL file as complete. The facade binds this to
	// the run's memo. Never serialized.
	FooterStats func() MemoStats `json:"-"`
}

// SuiteEvent is one progress notification from a running suite.
type SuiteEvent struct {
	// Stage is "start", "done", "skip" or "fail".
	Stage string `json:"stage"`
	// Cell identifies the cell the event belongs to.
	Cell SuiteCell `json:"-"`
	// Done and Total count finished (or skipped) cells.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Suite progress stages.
const (
	SuiteStageStart = "start"
	SuiteStageDone  = "done"
	SuiteStageSkip  = "skip"
	SuiteStageFail  = "fail"
)

// SuiteProgressFunc observes suite execution.
type SuiteProgressFunc func(SuiteEvent)

// SuiteCell is one expanded scenario of a suite.
type SuiteCell struct {
	// Index is the cell's position in deterministic expansion order.
	Index int `json:"index"`
	// Name labels the cell: the suite name plus its axis coordinates.
	Name string `json:"name"`
	// Hash is the scenario's content address.
	Hash string `json:"hash"`
	// Axes are the cell's grid coordinates, in axis order.
	Axes []AxisValue `json:"axes,omitempty"`
	// Scenario is the fully patched, defaulted scenario.
	Scenario Scenario `json:"scenario"`
}

// CellRunner executes one expanded cell. The engine guarantees at most
// Workers concurrent invocations; the runner must be safe for that
// concurrency. RunSuite's default runner is the facade's memoized
// scenario pipeline; custom runners let callers route other per-cell
// computations (e.g. the paper-reproduction measurement sweeps) through
// the same expansion, pooling and streaming machinery.
type CellRunner func(ctx context.Context, cell SuiteCell) (*Report, error)

// SuiteReport aggregates a suite run: one row per cell in expansion
// order (independent of worker count and completion order), plus the
// memo cache counters when the runner used a Memo.
type SuiteReport struct {
	// Name is the suite label.
	Name string `json:"name,omitempty"`
	// Cells is the expanded cell count.
	Cells int `json:"cells"`
	// Skipped counts cells not executed (resume).
	Skipped int `json:"skipped,omitempty"`
	// Failed counts cells that errored under the "continue" failure
	// policy (their rows carry status "failed" and the error detail).
	Failed int `json:"failed,omitempty"`
	// Rows holds every cell's outcome, in expansion order.
	Rows []SuiteRow `json:"rows"`
	// Memo reports stage-cache traffic (zero when no memo was used).
	Memo MemoStats `json:"memo"`
}

// JSON serializes the suite report as indented JSON.
func (r *SuiteReport) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("core: encode suite report: %w", err)
	}
	return buf.Bytes(), nil
}

// clone deep-copies the scenario's mutable parts so axis patches on one
// cell cannot leak into the base or sibling cells.
func (s Scenario) clone() Scenario {
	cp := s
	cp.Populations = append([]int(nil), s.Populations...)
	cp.Solvers = append([]SolverKind(nil), s.Solvers...)
	if s.Tiers != nil {
		cp.Tiers = make([]TierSpec, len(s.Tiers))
		copy(cp.Tiers, s.Tiers)
	}
	if s.Classes != nil {
		cp.Classes = make([]ClassSpec, len(s.Classes))
		copy(cp.Classes, s.Classes)
		for i := range cp.Classes {
			cp.Classes[i].TierDemands = append([]float64(nil), s.Classes[i].TierDemands...)
		}
	}
	if s.Workload != nil {
		wl := *s.Workload
		cp.Workload = &wl
	}
	if s.Planner != nil {
		p := *s.Planner
		p.TierNames = append([]string(nil), s.Planner.TierNames...)
		cp.Planner = &p
	}
	return cp
}

// MaxSuiteCells caps the cells one suite may expand to. Expand refuses a
// larger grid before allocating anything, so a small suite file with a
// few long axes (3,000^3 cells from 78 KB of JSON) cannot exhaust the
// memory of burstlabd, which expands every submission.
const MaxSuiteCells = 10000

// Expand crosses the grid's axes over the base scenario, producing the
// suite's cells in deterministic row-major order (later axes fastest).
// Every cell is patched, defaulted, validated and content-hashed. A grid
// of more than MaxSuiteCells cells is an error.
func (s Suite) Expand() ([]SuiteCell, error) {
	if err := s.Grid.validate(s.Base); err != nil {
		return nil, err
	}
	names := make([]string, len(s.Base.Tiers))
	for i, t := range s.Base.Tiers {
		names[i] = t.Name
	}
	defaults := DefaultTierNames(len(s.Base.Tiers))
	for i := range names {
		if names[i] == "" && i < len(defaults) {
			names[i] = defaults[i]
		}
	}
	axes := s.Grid.axes(names)
	total, over := 1, false
	sizes := make([]string, len(axes))
	for a, ax := range axes {
		sizes[a] = strconv.Itoa(ax.size)
		hi, lo := bits.Mul(uint(total), uint(ax.size))
		over = over || hi != 0 || lo > MaxSuiteCells
		total = int(lo)
	}
	if over {
		return nil, fmt.Errorf("core: suite grid of %s cells exceeds the %d-cell limit",
			strings.Join(sizes, " x "), MaxSuiteCells)
	}
	baseName := s.Name
	if baseName == "" {
		baseName = s.Base.Name
	}
	if baseName == "" {
		baseName = "suite"
	}

	cells := make([]SuiteCell, 0, total)
	idx := make([]int, len(axes))
	for n := 0; n < total; n++ {
		sc := s.Base.clone()
		parts := make([]string, 0, len(axes)+1)
		parts = append(parts, baseName)
		coords := make([]AxisValue, len(axes))
		for a, ax := range axes {
			ax.apply(&sc, idx[a])
			coords[a] = AxisValue{Name: ax.name, Value: ax.label(idx[a])}
			parts = append(parts, ax.name+"="+coords[a].Value)
		}
		name := strings.Join(parts, " ")
		sc.Name = name
		sc = sc.WithDefaults()
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("core: suite cell %d (%s): %w", n, name, err)
		}
		hash, err := sc.Hash()
		if err != nil {
			return nil, fmt.Errorf("core: suite cell %d (%s): %w", n, name, err)
		}
		cells = append(cells, SuiteCell{
			Index: n, Name: name, Hash: hash, Axes: coords, Scenario: sc,
		})
		// Odometer step: last axis varies fastest.
		for a := len(axes) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < axes[a].size {
				break
			}
			idx[a] = 0
		}
	}
	return cells, nil
}

// RunSuite expands the suite and executes every non-skipped cell with
// runner over a pool of suite.Workers goroutines. Finished rows stream
// to the sinks in completion order (Write calls serialized); the
// returned SuiteReport collects the same rows in expansion order, so it
// is invariant to worker count. Sinks are always closed.
//
// Failure handling: a panicking cell is recovered into a CellError
// carrying the stack; transient cell errors are retried up to
// suite.Retry.MaxRetries times with exponential backoff. Under the
// default fail-fast policy the first (post-retry) cell error cancels
// the remaining cells and is returned after all in-flight cells drain.
// Under the "continue" policy failed cells are recorded — status
// "failed", stage, class, message — in the report and the streamed
// rows, and the suite completes with a nil error; callers inspect
// SuiteReport.Failed. Suite-level cancellation (ctx canceled or timed
// out) always aborts the run regardless of policy.
//
// The facade's RunSuite wraps this with the memoized scenario runner —
// call this directly only to route custom per-cell computations through
// the engine.
func RunSuite(ctx context.Context, suite Suite, runner CellRunner, sinks ...ReportSink) (*SuiteReport, error) {
	if runner == nil {
		closeSinks(sinks)
		return nil, errors.New("core: suite runner must not be nil")
	}
	if !suite.OnError.Valid() {
		closeSinks(sinks)
		return nil, fmt.Errorf("core: unknown failure policy %q (want %q or %q)", suite.OnError, FailFast, FailContinue)
	}
	if err := suite.Retry.validate(); err != nil {
		closeSinks(sinks)
		return nil, err
	}
	cells, err := suite.Expand()
	if err != nil {
		closeSinks(sinks)
		return nil, err
	}
	workers := suite.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	rep := &SuiteReport{Name: suite.Name, Cells: len(cells), Rows: make([]SuiteRow, len(cells))}
	var (
		emitMu   sync.Mutex // serializes sink writes and progress calls
		done     int
		firstErr error
		errOnce  sync.Once
	)
	emit := func(row SuiteRow, stage string, cell SuiteCell) error {
		emitMu.Lock()
		defer emitMu.Unlock()
		done++
		if row.Status == CellStatusFailed {
			rep.Failed++
		}
		var sinkErr error
		if !row.Skipped {
			for _, s := range sinks {
				if err := s.Write(row); err != nil && sinkErr == nil {
					sinkErr = err
				}
			}
		}
		if suite.OnProgress != nil {
			suite.OnProgress(SuiteEvent{Stage: stage, Cell: cell, Done: done, Total: len(cells)})
		}
		return sinkErr
	}
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Pre-mark skipped cells so workers only see live ones.
	var live []int
	for i, cell := range cells {
		if suite.Skip[cell.Hash] {
			rep.Rows[i] = SuiteRow{Index: cell.Index, Name: cell.Name, Hash: cell.Hash, Axes: cell.Axes, Skipped: true, Status: CellStatusSkipped}
			rep.Skipped++
			if err := emit(rep.Rows[i], SuiteStageSkip, cell); err != nil {
				fail(err)
			}
			continue
		}
		live = append(live, i)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cell := cells[i]
				if ctx.Err() != nil {
					fail(ctx.Err())
					continue
				}
				if suite.OnProgress != nil {
					emitMu.Lock()
					suite.OnProgress(SuiteEvent{Stage: SuiteStageStart, Cell: cell, Done: done, Total: len(cells)})
					emitMu.Unlock()
				}
				cellRep, attempts, err := runCell(ctx, suite.Retry, cell, runner)
				if err != nil {
					// Suite-level cancellation aborts regardless of policy:
					// the error describes the caller's context, not the cell.
					if ctx.Err() != nil && IsCancellation(err) {
						fail(ctx.Err())
						continue
					}
					ce := newCellError(cell, attempts, err)
					if suite.OnError == FailContinue {
						row := SuiteRow{Index: cell.Index, Name: cell.Name, Hash: cell.Hash, Axes: cell.Axes, Status: CellStatusFailed, Error: ce.Failure()}
						rep.Rows[i] = row
						if serr := emit(row, SuiteStageFail, cell); serr != nil {
							fail(serr)
						}
						continue
					}
					fail(fmt.Errorf("core: suite cell %d (%s): %w", cell.Index, cell.Name, ce))
					continue
				}
				row := SuiteRow{Index: cell.Index, Name: cell.Name, Hash: cell.Hash, Axes: cell.Axes, Status: CellStatusOK, Report: cellRep}
				rep.Rows[i] = row
				if err := emit(row, SuiteStageDone, cell); err != nil {
					fail(err)
				}
			}
		}()
	}
	for _, i := range live {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if suite.FooterStats != nil && firstErr == nil {
		footer := SuiteRow{
			Index:  len(cells),
			Status: CellStatusFooter,
			Footer: &SuiteFooter{Cells: rep.Cells, Skipped: rep.Skipped, Failed: rep.Failed, Memo: suite.FooterStats()},
		}
		for _, s := range sinks {
			if err := s.Write(footer); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if cerr := closeSinks(sinks); cerr != nil && firstErr == nil {
		firstErr = cerr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return rep, nil
}

// runCell executes one cell with panic recovery and bounded retries of
// transient errors. It returns the report, the number of attempts made,
// and the final error. Cancellation-class errors are returned
// immediately when the suite context is done — aborting, never retried.
// Backoff delays are deterministic (attempt-indexed, no jitter) but
// interruptible by context cancellation.
func runCell(ctx context.Context, retry RetryPolicy, cell SuiteCell, runner CellRunner) (*Report, int, error) {
	attempts := 0
	for {
		attempts++
		rep, err := invokeCell(ctx, cell, runner)
		if err == nil {
			return rep, attempts, nil
		}
		if IsCancellation(err) && ctx.Err() != nil {
			return nil, attempts, err
		}
		if Classify(err) != ClassTransient || attempts > retry.MaxRetries {
			return nil, attempts, err
		}
		timer := time.NewTimer(retry.delay(attempts))
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, attempts, ctx.Err()
		case <-timer.C:
		}
	}
}

// invokeCell calls the runner, converting a panic into a *panicError so
// one bad cell cannot take down the worker pool.
func invokeCell(ctx context.Context, cell SuiteCell, runner CellRunner) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep = nil
			err = &panicError{value: r, stack: string(debug.Stack())}
		}
	}()
	return runner(ctx, cell)
}

func closeSinks(sinks []ReportSink) error {
	var first error
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SuiteJSON serializes the suite (base + grid) as indented, canonical
// JSON — the format ParseSuite and the burstlab -suite flag read.
func (s Suite) JSON() ([]byte, error) {
	canon, err := CanonicalJSON(s)
	if err != nil {
		return nil, fmt.Errorf("core: encode suite: %w", err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, canon, "", "  "); err != nil {
		return nil, fmt.Errorf("core: encode suite: %w", err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// ParseSuite decodes a suite from JSON, rejecting unknown fields so
// typos in a suite file fail loudly.
func ParseSuite(data []byte) (Suite, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return Suite{}, fmt.Errorf("core: parse suite: %w", err)
	}
	if dec.More() {
		return Suite{}, errors.New("core: parse suite: trailing data after the suite object")
	}
	return s, nil
}

// LoadSuite reads and parses a suite file.
func LoadSuite(path string) (Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Suite{}, fmt.Errorf("core: %w", err)
	}
	s, err := ParseSuite(data)
	if err != nil {
		return Suite{}, fmt.Errorf("core: %s: %w", path, err)
	}
	return s, nil
}

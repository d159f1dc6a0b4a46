// Command burstlab executes declarative experiment files end to end.
// With -scenario it loads one Scenario (JSON), runs it through the
// library's single Run entry point — characterize, fit, solve,
// simulate, cross-validate as the scenario's solver selection demands —
// and prints the unified Report. With -suite it loads a Suite (a base
// scenario crossed with a parameter grid), expands it into
// content-addressed cells and runs them over a worker pool with stage
// memoization, streaming each finished cell to a JSONL report file. It
// is the one CLI surface over the whole pipeline; capplan and tpcwsim
// are thin scenario builders over the same machinery.
//
// Usage:
//
//	burstlab -scenario scenario.json
//	burstlab -scenario scenario.json -out report.json -quiet
//	burstlab -scenario scenario.json -timeout 2m
//	burstlab -suite suite.json -out report.jsonl
//	burstlab -suite suite.json -out report.jsonl -resume -workers 4
//	burstlab -suite suite.json -out report.jsonl -on-error continue -retries 2
//	burstlab -suite suite.json -out report.jsonl -cell-timeout 90s
//
// Suite runs are resumable: with -resume, cells whose content hash
// already has a completed row in the -out JSONL file are skipped, so an
// interrupted sweep picks up where it stopped. Cells whose latest row
// failed (a previous -on-error continue run) are re-run, and truncated
// or corrupt trailing lines are skipped with a warning.
//
// Failure handling: -on-error continue records failed cells (stage,
// class, message) in the JSONL rows instead of aborting the sweep;
// -retries bounds retries of transient cell errors; -cell-timeout
// bounds each cell's wall clock (a deadline expiring during the exact
// MAP solve degrades that cell to the decomp approximation — or
// NetworkBounds when that also fails — rather than failing it). Exit
// codes: 0 success, 1 hard failure (invalid input, fail-fast
// cell error, cancellation, I/O), 3 partial failure — a continue-policy
// run completed but recorded failed cells, whose rows are on disk and
// retryable with -resume.
//
// With -remote host:port the experiment is not executed locally:
// burstlab submits it to a running burstlabd (see cmd/burstlabd),
// follows the job's row stream, writes the rows to -out and exits with
// the same code semantics. -rerun forces a finished job to re-execute
// against the daemon's warm cache:
//
//	burstlab -remote 127.0.0.1:8344 -suite suite.json -out report.jsonl
//	burstlab -remote 127.0.0.1:8344 -suite suite.json -rerun -quiet
//
// Interrupting the run (Ctrl-C / SIGTERM) cancels it cooperatively: the
// CTMC sweep or simulation in flight stops within one step and the
// command exits with an error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	burst "repro"
)

// Exit codes: 0 on success, 1 on any error that stopped the run
// (invalid input, fail-fast cell failure, cancellation, I/O), and 3
// when the run completed under -on-error continue but recorded failed
// cells — every healthy cell's row is on disk, so scripts can distinguish
// "partial results, retry with -resume" from a hard failure.
const exitPartialFailure = 3

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "burstlab:", err)
		var pf partialFailureError
		if errors.As(err, &pf) {
			os.Exit(exitPartialFailure)
		}
		os.Exit(1)
	}
}

// partialFailureError reports a completed continue-policy run with
// failed cells; main maps it to exit code 3.
type partialFailureError struct {
	failed, cells int
}

func (e partialFailureError) Error() string {
	return fmt.Sprintf("%d of %d cells failed (rows recorded; re-run with -resume to retry them)", e.failed, e.cells)
}

func run() error {
	scenarioPath := flag.String("scenario", "", "scenario JSON file to run")
	suitePath := flag.String("suite", "", "suite JSON file to run (base scenario + parameter grid)")
	outPath := flag.String("out", "", "write the report here: full JSON for -scenario ('-' for stdout), streamed JSONL rows for -suite")
	resume := flag.Bool("resume", false, "with -suite: skip cells whose hash already has a completed row in -out")
	workers := flag.Int("workers", 0, "with -suite: cap concurrently running cells (0 = GOMAXPROCS)")
	quiet := flag.Bool("quiet", false, "suppress the human-readable summary and progress")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
	backend := flag.String("backend", "", "CTMC generator backend: csr or matrix-free (empty = auto-select by state count); overrides the scenario's solver options")
	onError := flag.String("on-error", "", "with -suite: failure policy, fail-fast or continue (empty = the suite file's setting)")
	retries := flag.Int("retries", -1, "with -suite: max retries of transient cell errors (-1 = the suite file's setting)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell (or per-scenario) deadline; expiry during the exact MAP solve degrades to the decomp approximation, then NetworkBounds (0 = no limit)")
	classes := flag.String("classes", "", `override the workload classes of the scenario (or suite base): "browsing=3,ordering=1" for mix weights, "browsing:20,ordering:5" for fixed per-class populations`)
	remote := flag.String("remote", "", "submit to a running burstlabd at this address (host:port or URL) instead of executing locally, follow the job and stream its rows")
	rerun := flag.Bool("rerun", false, "with -remote: re-execute the job even if the daemon already holds its result (served from the daemon's warm memo)")
	flag.Parse()

	var classSpecs []burst.ClassSpec
	if *classes != "" {
		var err error
		if classSpecs, err = burst.ParseClassList(*classes); err != nil {
			return err
		}
	}

	switch burst.SolverBackend(*backend) {
	case burst.BackendAuto, burst.BackendCSR, burst.BackendMatrixFree:
	default:
		return fmt.Errorf("unknown -backend %q (want csr or matrix-free)", *backend)
	}
	if !burst.FailurePolicy(*onError).Valid() {
		return fmt.Errorf("unknown -on-error %q (want fail-fast or continue)", *onError)
	}

	if (*scenarioPath == "") == (*suitePath == "") {
		return fmt.Errorf("exactly one of -scenario or -suite is required (see examples/scenariofile, examples/suite)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	so := suiteOptions{
		path: *suitePath, outPath: *outPath, backend: *backend,
		resume: *resume, workers: *workers, quiet: *quiet,
		onError: *onError, retries: *retries, cellTimeout: *cellTimeout,
		classes: classSpecs,
	}
	if *remote != "" {
		return runRemote(ctx, *remote, *rerun, remoteOptions{scenarioPath: *scenarioPath, suite: so})
	}
	if *suitePath != "" {
		return runSuite(ctx, so)
	}

	sc, err := burst.LoadScenario(*scenarioPath)
	if err != nil {
		return err
	}
	applyBackend(&sc, *backend)
	if len(classSpecs) > 0 {
		sc.Classes = classSpecs
	}
	if *cellTimeout > 0 {
		sc.Deadline = cellTimeout.Seconds()
	}

	if !*quiet {
		sc.OnProgress = func(ev burst.ProgressEvent) {
			if ev.Population != 0 {
				fmt.Fprintf(os.Stderr, "burstlab: %-12s N=%-5d %d/%d\n", ev.Stage, ev.Population, ev.Step, ev.Total)
			} else {
				fmt.Fprintf(os.Stderr, "burstlab: %-12s %d/%d\n", ev.Stage, ev.Step, ev.Total)
			}
		}
	}

	start := time.Now()
	rep, err := burst.Run(ctx, sc)
	if err != nil {
		return err
	}
	if !*quiet {
		printSummary(rep, time.Since(start))
	}
	if *outPath != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if *outPath == "-" {
			_, err = os.Stdout.Write(data)
			return err
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "burstlab: report written to %s\n", *outPath)
	}
	return nil
}

// applyBackend forces the CTMC generator backend on a scenario's solver
// options; an empty selection leaves the scenario untouched.
func applyBackend(sc *burst.Scenario, backend string) {
	if backend == "" {
		return
	}
	if sc.Planner == nil {
		sc.Planner = &burst.PlannerOptions{}
	}
	sc.Planner.Solver.Backend = burst.SolverBackend(backend)
}

// suiteOptions carries burstlab's suite-mode flags.
type suiteOptions struct {
	path, outPath, backend string
	resume, quiet          bool
	workers, retries       int
	onError                string
	cellTimeout            time.Duration
	classes                []burst.ClassSpec
}

// apply applies the suite-shaping flags (backend, classes, workers,
// on-error, retries, cell timeout) to a suite, the same way for local
// and -remote runs.
func (o suiteOptions) apply(suite *burst.Suite) {
	applyBackend(&suite.Base, o.backend)
	if len(o.classes) > 0 {
		suite.Base.Classes = o.classes
	}
	if o.workers != 0 {
		suite.Workers = o.workers
	}
	if o.onError != "" {
		suite.OnError = burst.FailurePolicy(o.onError)
	}
	if o.retries >= 0 {
		suite.Retry.MaxRetries = o.retries
	}
	if o.cellTimeout > 0 {
		suite.Base.Deadline = o.cellTimeout.Seconds()
	}
}

// loadSuite reads the -suite file and applies the flag overrides.
func loadSuite(o suiteOptions) (burst.Suite, error) {
	suite, err := burst.LoadSuite(o.path)
	if err != nil {
		return burst.Suite{}, err
	}
	o.apply(&suite)
	return suite, nil
}

// runSuite executes a suite file: expand the grid, skip cells already
// completed in a resumed output, stream finished cells to the JSONL
// sink, and print an aggregated per-cell table. It returns an error —
// after every healthy cell has run and been recorded — when any cell
// failed under the continue policy, so the exit code reflects failures.
func runSuite(ctx context.Context, o suiteOptions) error {
	suite, err := loadSuite(o)
	if err != nil {
		return err
	}
	if o.resume {
		if o.outPath == "" {
			return fmt.Errorf("-resume needs -out (the JSONL file holding completed rows)")
		}
		st, err := burst.ReadJSONLResume(o.outPath)
		if err != nil {
			return err
		}
		if st.Malformed > 0 {
			fmt.Fprintf(os.Stderr, "burstlab: warning: %d unparseable line(s) in %s skipped (truncated or corrupt); their cells will re-run\n",
				st.Malformed, o.outPath)
		}
		if len(st.Failed) > 0 {
			fmt.Fprintf(os.Stderr, "burstlab: %d previously failed cell(s) will re-run\n", len(st.Failed))
		}
		suite.Skip = st.Done
	}
	if !o.quiet {
		suite.OnProgress = func(ev burst.SuiteEvent) {
			fmt.Fprintf(os.Stderr, "burstlab: %-5s [%d/%d] %s\n", ev.Stage, ev.Done, ev.Total, ev.Cell.Name)
		}
	}
	var sinks []burst.ReportSink
	switch {
	case o.outPath == "-":
		if o.resume {
			return fmt.Errorf("-resume needs a file -out, not stdout")
		}
		sinks = append(sinks, burst.NewJSONLSink(os.Stdout))
	case o.outPath != "":
		// A fresh run truncates; -resume appends after the surviving rows.
		open := burst.OpenJSONLSink
		if o.resume {
			open = burst.AppendJSONLSink
		}
		sink, err := open(o.outPath)
		if err != nil {
			return err
		}
		sinks = append(sinks, sink)
	}

	start := time.Now()
	rep, err := burst.RunSuite(ctx, suite, sinks...)
	if err != nil {
		return err
	}
	if !o.quiet {
		printSuiteSummary(rep, time.Since(start))
	}
	if o.outPath != "" {
		fmt.Fprintf(os.Stderr, "burstlab: %d rows streamed to %s (%d skipped)\n",
			rep.Cells-rep.Skipped, o.outPath, rep.Skipped)
	}
	if rep.Failed > 0 {
		return partialFailureError{failed: rep.Failed, cells: rep.Cells}
	}
	return nil
}

// printSuiteSummary renders one line per (cell, population) with the
// headline columns each cell's solvers produced, then the memo-cache
// counters — the visible effect of cross-cell stage reuse.
func printSuiteSummary(rep *burst.SuiteReport, elapsed time.Duration) {
	name := rep.Name
	if name == "" {
		name = "suite"
	}
	extra := ""
	if rep.Failed > 0 {
		extra = fmt.Sprintf(", %d failed", rep.Failed)
	}
	fmt.Printf("%s: %d cells (%d skipped%s) in %.1fs\n", name, rep.Cells, rep.Skipped, extra, elapsed.Seconds())
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "cell\tN\tMAP X\tdecomp X\tMVA X\tbounds\tsim X\tMAP err")
	degraded := 0
	for _, row := range rep.Rows {
		if row.Skipped {
			fmt.Fprintf(w, "%s\t(skipped)\t\t\t\t\t\t\n", cellLabel(row))
			continue
		}
		if row.Error != nil || row.Report == nil {
			detail := "error"
			if row.Error != nil {
				detail = fmt.Sprintf("%s stage, %s: %s", row.Error.Stage, row.Error.Class, row.Error.Message)
			}
			fmt.Fprintf(w, "%s\t(FAILED: %s)\t\t\t\t\t\t\n", cellLabel(row), detail)
			continue
		}
		label := cellLabel(row)
		if row.Report.Degraded {
			label += " *"
			degraded++
		}
		for _, r := range row.Report.Results {
			cols := fmt.Sprintf("%s\t%d", label, r.Population)
			cols += colF(r.MAP != nil, func() float64 { return r.MAP.Throughput })
			cols += colF(r.Decomp != nil, func() float64 { return r.Decomp.Throughput })
			cols += colF(r.MVA != nil, func() float64 { return r.MVA.Throughput })
			if r.Bounds != nil {
				cols += fmt.Sprintf("\t%.2f-%.2f", r.Bounds.LowerX, r.Bounds.UpperX)
			} else {
				cols += "\t"
			}
			cols += colF(r.Sim != nil, func() float64 { return r.Sim.Throughput.Mean })
			if r.Validation != nil {
				cols += fmt.Sprintf("\t%+.1f%%", 100*r.Validation.MAPError)
			} else {
				cols += "\t"
			}
			fmt.Fprintln(w, cols)
		}
	}
	w.Flush()
	if degraded > 0 {
		fmt.Printf("* %d cell(s) degraded: exact MAP solve replaced by the decomp approximation or NetworkBounds (see fallback_reason in the rows)\n", degraded)
	}
	backend, peak := "", 0
	for _, row := range rep.Rows {
		if row.Skipped || row.Report == nil {
			continue
		}
		if row.Report.SolverBackend != "" {
			backend = row.Report.SolverBackend
		}
		if row.Report.PeakStates > peak {
			peak = row.Report.PeakStates
		}
	}
	if backend != "" {
		fmt.Printf("solver: backend=%s peak CTMC states=%d\n", backend, peak)
	}
	m := rep.Memo
	fmt.Printf("memo: characterize %d/%d hits, fit %d/%d hits, solve %d/%d hits\n",
		m.CharHits, m.CharHits+m.CharMisses,
		m.FitHits, m.FitHits+m.FitMisses,
		m.SolveHits, m.SolveHits+m.SolveMisses)
}

// cellLabel compacts a cell's axis coordinates for the table ("I=40
// N=100"), falling back to its name for gridless suites.
func cellLabel(row burst.SuiteRow) string {
	if len(row.Axes) == 0 {
		return row.Name
	}
	label := ""
	for i, av := range row.Axes {
		if i > 0 {
			label += " "
		}
		label += av.Name + "=" + av.Value
	}
	return label
}

// printClassSummary renders the per-class table of a multiclass report:
// one row per (population, class) with the multiclass-MVA prediction
// and, when the scenario simulated, the measured per-class columns and
// validation errors.
func printClassSummary(rep *burst.Report) {
	if len(rep.ClassNames) == 0 {
		return
	}
	fmt.Printf("classes: %v\n", rep.ClassNames)
	if rep.ClassAggregation != "" {
		fmt.Printf("note: %s\n", rep.ClassAggregation)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	first := rep.Results[0]
	header := "N\tclass\tN_c"
	if first.Multiclass != nil {
		header += "\tMVA X\tMVA R(s)"
	}
	if first.Sim != nil && len(first.Sim.ClassNames) > 0 {
		header += "\tsim X\tsim R(s)"
	}
	hasValidation := false
	for _, r := range rep.Results {
		if r.Validation != nil && len(r.Validation.Classes) > 0 {
			hasValidation = true
		}
	}
	if hasValidation {
		header += "\tX err\tR err"
	}
	fmt.Fprintln(w, header)
	for _, r := range rep.Results {
		for c, name := range rep.ClassNames {
			row := fmt.Sprintf("%d\t%s", r.Population, name)
			switch {
			case r.Multiclass != nil && c < len(r.Multiclass.Classes):
				cr := r.Multiclass.Classes[c]
				row += fmt.Sprintf("\t%d\t%.2f\t%.4f", cr.Population, cr.Throughput, cr.ResponseTime)
			case r.Validation != nil && c < len(r.Validation.Classes):
				row += fmt.Sprintf("\t%d", r.Validation.Classes[c].Population)
			default:
				row += "\t"
			}
			if r.Sim != nil && c < len(r.Sim.ClassThroughput) {
				row += fmt.Sprintf("\t%.2f±%.2f\t%.4f",
					r.Sim.ClassThroughput[c].Mean, r.Sim.ClassThroughput[c].HalfWidth,
					r.Sim.ClassMeanResponse[c].Mean)
			}
			if hasValidation {
				if r.Validation != nil && c < len(r.Validation.Classes) {
					cv := r.Validation.Classes[c]
					row += fmt.Sprintf("\t%+.1f%%\t%+.1f%%", 100*cv.MVAError, 100*cv.ResponseError)
				} else {
					row += "\t\t"
				}
			}
			fmt.Fprintln(w, row)
		}
	}
	w.Flush()
	for _, r := range rep.Results {
		if r.Validation != nil && r.Validation.ClassFallbackReason != "" {
			fmt.Printf("N=%d: per-class validation degraded: %s\n", r.Population, r.Validation.ClassFallbackReason)
		}
	}
}

// colF renders one optional float column.
func colF(ok bool, v func() float64) string {
	if !ok {
		return "\t"
	}
	return fmt.Sprintf("\t%.2f", v())
}

// printSummary renders the report as one table per concern: tier model
// inputs, then a per-population row with whichever columns the
// scenario's solvers produced.
func printSummary(rep *burst.Report, elapsed time.Duration) {
	sc := rep.Scenario
	name := sc.Name
	if name == "" {
		name = "scenario"
	}
	fmt.Printf("%s: Z=%.2fs populations=%v solvers=%v (%.1fs)\n",
		name, sc.ThinkTime, sc.Populations, sc.Solvers, elapsed.Seconds())
	if rep.Degraded {
		fmt.Printf("DEGRADED: %s\n", rep.FallbackReason)
	}

	for _, tier := range rep.Tiers {
		c := tier.Characterization
		fmt.Printf("tier %-8s S=%.6gs I=%.4g p95=%.6gs", tier.Name, c.MeanServiceTime, c.IndexOfDispersion, c.P95ServiceTime)
		if tier.FitSCV != 0 {
			fmt.Printf("  (fit: SCV=%.3g gamma=%.3g)", tier.FitSCV, tier.FitGamma)
		}
		fmt.Println()
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "N"
	first := rep.Results[0]
	if first.MAP != nil {
		header += "\tMAP X\tMAP R(s)"
	}
	if first.Decomp != nil {
		header += "\tdecomp X\tdecomp R(s)"
	}
	if first.MAP != nil && first.Decomp != nil {
		header += "\tdecomp err"
	}
	if first.MVA != nil {
		header += "\tMVA X\tMVA R(s)"
	}
	if first.Bounds != nil {
		header += "\tX lower\tX upper"
	}
	if first.Sim != nil {
		header += "\tsim X\tsim R(s)"
	}
	if first.Validation != nil {
		header += "\tMAP err\tMVA err"
	}
	fmt.Fprintln(w, header)
	for _, r := range rep.Results {
		row := fmt.Sprintf("%d", r.Population)
		if r.MAP != nil {
			row += fmt.Sprintf("\t%.2f\t%.4f", r.MAP.Throughput, r.MAP.ResponseTime)
		}
		if r.Decomp != nil {
			row += fmt.Sprintf("\t%.2f\t%.4f", r.Decomp.Throughput, r.Decomp.ResponseTime)
		}
		if r.MAP != nil && r.Decomp != nil {
			row += fmt.Sprintf("\t%.2f%%", 100*r.DecompError)
		}
		if r.MVA != nil {
			row += fmt.Sprintf("\t%.2f\t%.4f", r.MVA.Throughput, r.MVA.ResponseTime)
		}
		if r.Bounds != nil {
			row += fmt.Sprintf("\t%.2f\t%.2f", r.Bounds.LowerX, r.Bounds.UpperX)
		}
		if r.Sim != nil {
			row += fmt.Sprintf("\t%.2f±%.2f\t%.4f", r.Sim.Throughput.Mean, r.Sim.Throughput.HalfWidth, r.Sim.MeanResponse.Mean)
		}
		if r.Validation != nil {
			row += fmt.Sprintf("\t%+.1f%%\t%+.1f%%", 100*r.Validation.MAPError, 100*r.Validation.MVAError)
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()
	if rep.SolverBackend != "" {
		fmt.Printf("solver: backend=%s peak CTMC states=%d\n", rep.SolverBackend, rep.PeakStates)
	}
	printClassSummary(rep)

	// Per-tier validation detail, when the loop was closed.
	for _, r := range rep.Results {
		if r.Validation == nil {
			continue
		}
		fmt.Printf("validation at N=%d (CTMC states %d, MAP within sim CI: %v):\n",
			r.Population, r.Validation.States, r.Validation.MAPWithinCI)
		for _, tier := range r.Validation.Tiers {
			fmt.Printf("  tier %-8s U sim=%.3f±%.3f  MAP=%.3f (%+.3f)  MVA=%.3f (%+.3f)  I=%.1f\n",
				tier.Name, tier.SimUtil.Mean, tier.SimUtil.HalfWidth,
				tier.MAPUtil, tier.MAPError, tier.MVAUtil, tier.MVAError, tier.IndexOfDispersion)
		}
	}
}

package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	burst "repro"
	"repro/internal/core"
)

// suiteWorkload runs a committed suite cold, on a fresh memo, through
// the facade's RunSuiteWithMemo with two workers. Its operations are the
// suite's cells.
type suiteWorkload struct {
	path    string            // suite file, relative to the repository root
	solvers []core.SolverKind // replaces the file's solver list when set
	refs    string            // section of refs.json holding reference X
	// accuracy is the column x_max_rel_err compares with the reference.
	accuracy core.SolverKind
	// knownFail lists the cells (by grid coordinates) documented to fail
	// today; they lower success_rate but are not unexpected failures.
	knownFail map[string]bool

	suite    core.Suite
	ref      map[string][]float64
	baseline *core.SuiteReport // the warm-up pass, which later passes must reproduce
	poolEff  float64           // Σ cell time / (workers × wall) of the warm-up pass
}

// suiteWorkers is the facade's worker count: the two cores the benchmark
// machine has.
const suiteWorkers = 2

// newExactGrid is the committed examples/suite grid (db I ∈ {1,4,40,400}
// × N ∈ {25,50,100,150}, tol 1e-8) with the exact, decomp and MVA
// solvers: the CTMC iteration does most of the work.
func newExactGrid() *suiteWorkload {
	return &suiteWorkload{
		path:     "examples/suite/suite.json",
		solvers:  []core.SolverKind{core.SolverMAP, core.SolverDecomp, core.SolverMVA},
		refs:     "exact_grid",
		accuracy: core.SolverMAP,
	}
}

// newDecompWide is a K=6 grid out of exact reach (perfbench/data/
// decomp_wide_suite.json): decomp, MVA and bounds only. Two of its 16
// cells fail today, the decomp fixed point stopping short of its
// tolerance after 200 iterations; they stay in the grid.
func newDecompWide() *suiteWorkload {
	return &suiteWorkload{
		path:     "perfbench/data/decomp_wide_suite.json",
		refs:     "decomp_wide",
		accuracy: core.SolverDecomp,
		knownFail: map[string]bool{
			"db.index_of_dispersion=40 app1.index_of_dispersion=100 Z=0.5":  true,
			"db.index_of_dispersion=400 app1.index_of_dispersion=100 Z=0.5": true,
		},
	}
}

// cellKey names a cell by its grid coordinates, independent of the
// suite's name.
func cellKey(axes []core.AxisValue) string {
	parts := make([]string, len(axes))
	for i, a := range axes {
		parts[i] = a.Name + "=" + a.Value
	}
	return strings.Join(parts, " ")
}

func (w *suiteWorkload) prepare(context.Context) error {
	s, err := core.LoadSuite(w.path)
	if err != nil {
		return err
	}
	if w.solvers != nil {
		s.Base.Solvers = w.solvers
	}
	s.Workers = suiteWorkers
	cells, err := s.Expand()
	if err != nil {
		return err
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	w.ref = refs.section(w.refs)
	for _, cell := range cells {
		key := cellKey(cell.Axes)
		if len(w.ref[key]) != len(cell.Scenario.Populations) && !w.knownFail[key] {
			return fmt.Errorf("cell %q: %w", key, errNoRef)
		}
	}
	w.suite = s
	return nil
}

// runFacade runs one cold pass and times each cell from its start and
// finish events.
func (w *suiteWorkload) runFacade(ctx context.Context) (*core.SuiteReport, []opLatency, time.Duration, error) {
	var mu sync.Mutex
	started := map[int]time.Time{}
	var lat []opLatency
	s := w.suite
	s.OnProgress = func(ev core.SuiteEvent) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch ev.Stage {
		case core.SuiteStageStart:
			started[ev.Cell.Index] = now
		case core.SuiteStageDone, core.SuiteStageFail:
			lat = append(lat, opLatency{ev.Cell.Hash, now.Sub(started[ev.Cell.Index])})
		}
	}
	t := time.Now()
	rep, err := burst.RunSuiteWithMemo(ctx, s, burst.NewMemo())
	wall := time.Since(t)
	mu.Lock()
	defer mu.Unlock()
	return rep, lat, wall, err
}

func (w *suiteWorkload) warmup(ctx context.Context) error {
	rep, lat, wall, err := w.runFacade(ctx)
	if err != nil {
		return err
	}
	var busy time.Duration
	for _, l := range lat {
		busy += l.d
	}
	w.poolEff = busy.Seconds() / (suiteWorkers * wall.Seconds())
	w.baseline = rep
	var pr passResult
	w.check(rep, &pr)
	if len(pr.problems) > 0 {
		return fmt.Errorf("warm-up pass: %s", strings.Join(pr.problems, "; "))
	}
	return nil
}

func (w *suiteWorkload) pass(ctx context.Context, _ int) (passResult, error) {
	var pr passResult
	var rep *core.SuiteReport
	var err error
	pr.timed(func() { rep, pr.opLat, _, err = w.runFacade(ctx) })
	if err != nil {
		return passResult{}, err
	}
	w.check(rep, &pr)
	for i, row := range rep.Rows {
		if d := diffColumns(columns(row.Report), columns(w.baseline.Rows[i].Report)); d != "" {
			pr.problemf("cell %q: throughput differs from the warm-up pass: %s", row.Name, d)
		}
	}
	return pr, nil
}

// check classifies every row and measures its accuracy against the
// committed reference: the exact-grid MAP column, the decomp-wide decomp
// column. Where a row has decomp and bounds columns, decomp X must lie
// inside the bounds.
func (w *suiteWorkload) check(rep *core.SuiteReport, pr *passResult) {
	for _, row := range rep.Rows {
		pr.ops++
		key := cellKey(row.Axes)
		if row.Status != core.CellStatusOK || row.Report == nil {
			if !w.knownFail[key] {
				pr.failed++
				pr.problemf("cell %q failed: %v", row.Name, row.Error)
			}
			continue
		}
		pr.ok++
		for i, res := range row.Report.Results {
			var x float64
			switch {
			case w.accuracy == core.SolverMAP && res.MAP != nil:
				x = res.MAP.Throughput
			case w.accuracy == core.SolverDecomp && res.Decomp != nil:
				x = res.Decomp.Throughput
			default:
				pr.problemf("cell %q N=%d: no %s column", row.Name, res.Population, w.accuracy)
				continue
			}
			pr.xErr = math.Max(pr.xErr, relErr(x, w.ref[key][i]))
			if d, b := res.Decomp, res.Bounds; d != nil && b != nil && (d.Throughput < b.LowerX || d.Throughput > b.UpperX) {
				pr.problemf("cell %q N=%d: decomp X %v outside bounds [%v, %v]", row.Name, res.Population, d.Throughput, b.LowerX, b.UpperX)
			}
		}
	}
}

// layered runs every cell one at a time through solveCell and checks its
// throughputs bit for bit against the facade's warm-up rows.
func (w *suiteWorkload) layered(ctx context.Context, tr *tracer, c counters) (passResult, error) {
	end := tr.begin("core.expand", "core", "")
	cells, err := w.suite.Expand()
	end()
	if err != nil {
		return passResult{}, err
	}
	var pr passResult
	for i, cell := range cells {
		pr.ops++
		id := cell.Hash[:12]
		end := tr.begin("core.cell", "core", id)
		out, err := solveCell(ctx, cell.Scenario, id, tr, c)
		end()
		row := w.baseline.Rows[i]
		switch {
		case ctx.Err() != nil:
			return pr, ctx.Err()
		case err != nil && row.Status == core.CellStatusOK:
			pr.failed++
			pr.problemf("cell %q: %v, but the facade row is ok", cell.Name, err)
		case err != nil:
			if !w.knownFail[cellKey(cell.Axes)] {
				pr.failed++
				pr.problemf("cell %q failed: %v", cell.Name, err)
			}
		case row.Status != core.CellStatusOK:
			pr.failed++
			pr.problemf("cell %q: solved, but the facade row failed", cell.Name)
		default:
			pr.ok++
			if p := diffColumns(out, columns(row.Report)); p != "" {
				pr.problemf("cell %q: traced pipeline differs from RunSuiteWithMemo: %s", cell.Name, p)
			}
		}
	}
	st := w.baseline.Memo
	if lookups := st.Hits() + st.Misses(); lookups > 0 {
		c["memo.hit_ratio"] = float64(st.Hits()) / float64(lookups)
	}
	c["memo.solve_misses"] = float64(st.SolveMisses)
	c["memo.evictions"] = float64(st.Evictions)
	c["memo.bytes"] = float64(st.Bytes)
	c["core.pool_efficiency"] = w.poolEff
	if w.accuracy == core.SolverMAP {
		c["mapqn.decomp_max_rel_err"] = w.decompErr()
	}
	return pr, nil
}

// decompErr is the largest relative gap between the warm-up pass's
// decomp column and the committed exact reference.
func (w *suiteWorkload) decompErr() float64 {
	worst := 0.0
	for _, row := range w.baseline.Rows {
		if row.Report == nil {
			continue
		}
		for i, res := range row.Report.Results {
			if res.Decomp != nil {
				worst = math.Max(worst, relErr(res.Decomp.Throughput, w.ref[cellKey(row.Axes)][i]))
			}
		}
	}
	return worst
}

// columns extracts a report's throughput columns; a failed cell (nil
// report) has none.
func columns(rep *core.Report) *cellOutput {
	out := &cellOutput{}
	if rep == nil {
		return out
	}
	for _, res := range rep.Results {
		if res.MAP != nil {
			out.mapX = append(out.mapX, res.MAP.Throughput)
		}
		if res.Decomp != nil {
			out.decompX = append(out.decompX, res.Decomp.Throughput)
		}
		if res.MVA != nil {
			out.mvaX = append(out.mvaX, res.MVA.Throughput)
		}
		if res.Bounds != nil {
			out.lowerX = append(out.lowerX, res.Bounds.LowerX)
			out.upperX = append(out.upperX, res.Bounds.UpperX)
		}
	}
	return out
}

// diffColumns names the first column in which two cells' throughputs
// are not bit-identical, or returns "".
func diffColumns(a, b *cellOutput) string {
	for _, col := range []struct {
		name string
		a, b []float64
	}{
		{"map", a.mapX, b.mapX},
		{"decomp", a.decompX, b.decompX},
		{"mva", a.mvaX, b.mvaX},
		{"bounds lower", a.lowerX, b.lowerX},
		{"bounds upper", a.upperX, b.upperX},
	} {
		if len(col.a) != len(col.b) {
			return fmt.Sprintf("%s column has %d populations, not %d", col.name, len(col.a), len(col.b))
		}
		for i := range col.a {
			if col.a[i] != col.b[i] {
				return fmt.Sprintf("%s X %v != %v at population %d", col.name, col.a[i], col.b[i], i)
			}
		}
	}
	return ""
}

func (w *suiteWorkload) close() error { return nil }

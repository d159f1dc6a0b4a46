package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	burst "repro"
	"repro/internal/core"
	"repro/internal/mapqn"
)

// refsPath holds the committed reference throughputs. They are solved
// once, at tolerances far below the ones the workloads use, by
// `perfbench -gen-refs`, and never recomputed during a benchmark run: a
// change to the solvers moves the measured error, not the reference.
const refsPath = "perfbench/data/refs.json"

// Reference tolerances: the exact CTMC at 1e-12 (the workloads use
// 1e-8), the decomp fixed point at 1e-12 (the default is 1e-9).
const (
	refExactTol     = 1e-12
	refDecompTol    = 1e-12
	refDecompMaxIt  = 100000
	serviceSuiteRef = "examples/service/suite.json"
)

// refFile maps, per workload, a cell's grid coordinates (cellKey) to its
// reference throughput at each of the cell's populations.
type refFile struct {
	GeneratedBy string               `json:"generated_by"`
	ExactGrid   map[string][]float64 `json:"exact_grid"`
	DecompWide  map[string][]float64 `json:"decomp_wide"`
	Service     map[string][]float64 `json:"service"`
}

func (r *refFile) section(name string) map[string][]float64 {
	switch name {
	case "exact_grid":
		return r.ExactGrid
	case "decomp_wide":
		return r.DecompWide
	case "service":
		return r.Service
	}
	return nil
}

func loadRefs() (*refFile, error) {
	data, err := os.ReadFile(refsPath)
	if err != nil {
		return nil, fmt.Errorf("read references: %w", err)
	}
	var r refFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", refsPath, err)
	}
	return &r, nil
}

// generateRefs solves every reference cell cold, one at a time, through
// the facade's Run: the exact-grid and service cells with the exact
// solver at refExactTol, the decomp-wide cells with the decomp solver at
// refDecompTol. A decomp-wide cell whose fixed point does not reach that
// tolerance gets no reference.
func generateRefs(ctx context.Context) error {
	r := refFile{
		GeneratedBy: fmt.Sprintf("go run ./perfbench -gen-refs: every cell solved cold through burst.Run, exact CTMC at tol %g, decomp fixed point at tol %g (max %d iterations)",
			refExactTol, refDecompTol, refDecompMaxIt),
	}
	var err error
	if r.ExactGrid, err = solveRefs(ctx, newExactGrid().path, core.SolverMAP); err != nil {
		return err
	}
	if r.Service, err = solveRefs(ctx, serviceSuiteRef, core.SolverMAP); err != nil {
		return err
	}
	if r.DecompWide, err = solveRefs(ctx, newDecompWide().path, core.SolverDecomp); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsPath, append(data, '\n'), 0o644)
}

func solveRefs(ctx context.Context, path string, solver core.SolverKind) (map[string][]float64, error) {
	s, err := core.LoadSuite(path)
	if err != nil {
		return nil, err
	}
	cells, err := s.Expand()
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, cell := range cells {
		sc := cell.Scenario
		sc.Solvers = []core.SolverKind{solver}
		popts := core.PlannerOptions{}
		if sc.Planner != nil {
			popts = *sc.Planner
		}
		popts.Solver.Tol = refExactTol
		popts.Decomp = &mapqn.DecompOptions{Tol: refDecompTol, MaxIter: refDecompMaxIt}
		sc.Planner = &popts
		rep, err := burst.Run(ctx, sc)
		if err != nil {
			if solver == core.SolverDecomp {
				fmt.Fprintf(os.Stderr, "%s: no reference: %v\n", cell.Name, err)
				continue
			}
			return nil, fmt.Errorf("%s: %w", cell.Name, err)
		}
		xs := make([]float64, len(rep.Results))
		for i, res := range rep.Results {
			m := res.MAP
			if solver == core.SolverDecomp {
				m = res.Decomp
			}
			if m == nil {
				return nil, fmt.Errorf("%s: no %s column: %s", cell.Name, solver, rep.FallbackReason)
			}
			xs[i] = m.Throughput
		}
		out[cellKey(cell.Axes)] = xs
		fmt.Fprintf(os.Stderr, "%s: %v\n", cell.Name, xs)
	}
	return out, nil
}

// Package core implements the paper's end-to-end capacity-planning
// methodology: from coarse monitoring measurements of a multi-tier
// system, build (1) the burstiness-aware MAP queueing network of
// Section 4 and (2) the classical MVA baseline of Section 3.4, and
// predict throughput, response time and utilizations as the number of
// emulated browsers grows. This is the piece a practitioner would use:
// feed it `sar`-style utilization samples and transaction counts for
// each tier, get capacity predictions that remain accurate under bursty
// workloads and bottleneck switch.
//
// A plan is a PlanN with one tier per layer (front, app, ..., db),
// fitted by FitPlan or assembled from fitted tiers by NewPlanN; the
// paper's front+DB system is the K=2 case. SolveModel fits and solves a
// plan with the exact -> decomp -> bounds degradation ladder; it is the
// model stage of both the declarative entry point (Scenario, executed
// by the root package's Run) and cross-validation.
package core

import (
	"repro/internal/ctmc"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/markov"
)

// PlannerOptions tunes model construction.
type PlannerOptions struct {
	// Inference configures the measurement pipeline.
	Inference inference.Options `json:"inference,omitempty"`
	// Fit configures the MAP(2) selection (paper Section 4.1).
	Fit markov.FitOptions `json:"fit,omitempty"`
	// Solver configures the CTMC steady-state solver.
	Solver ctmc.Options `json:"solver,omitempty"`
	// Decomp configures the approximate decomposition solver's fixed
	// point (nil for defaults). A pointer so that scenarios not touching
	// it keep their canonical JSON — and therefore their content hashes —
	// unchanged.
	Decomp *mapqn.DecompOptions `json:"decomp,omitempty"`
	// TierNames optionally labels the tiers of an N-tier plan (one per
	// tier, in visit order). Empty uses front/app.../db defaults.
	TierNames []string `json:"tier_names,omitempty"`
}

// Accuracy compares predicted against measured throughput, returning the
// relative errors of the MAP model and the MVA baseline — the error bars
// the paper reports in Figs. 10-12.
type Accuracy struct {
	EBs              int
	Measured         float64
	MAPPredicted     float64
	MVAPredicted     float64
	MAPRelativeError float64
	MVARelativeError float64
}

func relErr(pred, actual float64) float64 {
	d := pred - actual
	if d < 0 {
		d = -d
	}
	return d / actual
}

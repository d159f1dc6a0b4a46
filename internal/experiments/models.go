package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/mva"
	"repro/internal/tpcw"
)

// AccuracyRow is one point of a model-vs-measurement comparison
// (Figs. 10-12).
type AccuracyRow struct {
	Mix      string
	EBs      int
	Measured float64
	MVA      float64
	MVAErr   float64
	// MAPModel and MAPErr are zero for MVA-only experiments (Fig. 10).
	MAPModel float64
	MAPErr   float64
}

// fitCharacterizations runs a fitting experiment at the given Zestim and
// characterizes both tiers (front, db).
func fitCharacterizations(mix tpcw.Mix, zEstim float64, ebs int, seed int64, scale Scale) ([]inference.Characterization, error) {
	run, err := runTwoTier(context.TODO(), scale.fitConfig(mix, zEstim, ebs, seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting run %s Zestim=%v: %w", mix.Name, zEstim, err)
	}
	chars, err := inference.CharacterizeAll(run.TierSamples, inference.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: characterization: %w", err)
	}
	return chars, nil
}

// planAt fits MAP(2)s to the two-tier characterizations, to be evaluated
// at Zqn = 0.5 s.
func planAt(chars []inference.Characterization, scale Scale) (*core.PlanN, error) {
	return core.FitPlan(chars, 0.5, core.PlannerOptions{
		Solver: solverOpts(scale),
		Fit:    fitOpts(),
	}, nil)
}

// Figure10 compares MVA predictions (parameterized by mean demands only,
// as in Section 3.4) against measured throughput for the three mixes.
// The paper's headline: up to ~36% error for the browsing mix, small
// errors for shopping and ordering.
func Figure10(seed int64, scale Scale, populations []int) ([]AccuracyRow, error) {
	if len(populations) == 0 {
		populations = []int{25, 50, 75, 100, 125, 150}
	}
	suite := measurementSuite("figure10", scale, standardMixNames(), 0.5, populations, seed+1000)
	srep, err := runMeasurement(suite, 13)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 10: %w", err)
	}
	measured := measuredThroughputs(srep)
	var rows []AccuracyRow
	for m, mix := range tpcw.StandardMixes() {
		chars, err := fitCharacterizations(mix, 0.5, 50, seed, scale)
		if err != nil {
			return nil, err
		}
		net := mva.ModelN([]float64{chars[0].MeanServiceTime, chars[1].MeanServiceTime}, nil, 0.5)
		for i, n := range populations {
			pred, err := mva.Solve(net, n)
			if err != nil {
				return nil, err
			}
			meas := measured[m*len(populations)+i]
			rows = append(rows, AccuracyRow{
				Mix: mix.Name, EBs: n,
				Measured: meas,
				MVA:      pred.Throughput,
				MVAErr:   relError(pred.Throughput, meas),
			})
		}
	}
	return rows, nil
}

// Figure11Row compares models fitted at different measurement
// granularities (Zestim) for the browsing mix.
type Figure11Row struct {
	EBs        int
	Measured   float64
	ModelZ05   float64 // fitted from Zestim = 0.5 s data
	ErrZ05     float64
	ModelZ7    float64 // fitted from Zestim = 7 s data
	ErrZ7      float64
	PaperErr05 float64
	PaperErr7  float64
}

// Figure11 reproduces the granularity experiment of Fig. 11: MAP(2)s are
// fitted from 50-EB browsing-mix runs at Zestim = 0.5 s and Zestim = 7 s,
// and both models predict throughput at Zqn = 0.5 s.
func Figure11(seed int64, scale Scale, populations []int) ([]Figure11Row, error) {
	if len(populations) == 0 {
		populations = []int{25, 75, 150}
	}
	paperErr := map[int][2]float64{
		25:  {0.095, 0.024},
		75:  {0.095, 0.046},
		150: {0.061, 0.043},
	}
	mix := tpcw.BrowsingMix()
	fitAt := func(zEstim float64) (*core.PlanN, error) {
		chars, err := fitCharacterizations(mix, zEstim, 50, seed, scale)
		if err != nil {
			return nil, err
		}
		return planAt(chars, scale)
	}
	plan05, err := fitAt(0.5)
	if err != nil {
		return nil, err
	}
	plan7, err := fitAt(7)
	if err != nil {
		return nil, err
	}
	suite := measurementSuite("figure11", scale, []string{mix.Name}, 0.5, populations, seed+2000)
	srep, err := runMeasurement(suite, 13)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 11: %w", err)
	}
	measured := measuredThroughputs(srep)
	preds05, err := plan05.PredictCtx(context.TODO(), populations, nil)
	if err != nil {
		return nil, err
	}
	preds7, err := plan7.PredictCtx(context.TODO(), populations, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure11Row, len(populations))
	for i, n := range populations {
		pp := paperErr[n]
		rows[i] = Figure11Row{
			EBs:        n,
			Measured:   measured[i],
			ModelZ05:   preds05[i].MAP.Throughput,
			ErrZ05:     relError(preds05[i].MAP.Throughput, measured[i]),
			ModelZ7:    preds7[i].MAP.Throughput,
			ErrZ7:      relError(preds7[i].MAP.Throughput, measured[i]),
			PaperErr05: pp[0],
			PaperErr7:  pp[1],
		}
	}
	return rows, nil
}

// Figure12Result carries the full validation of the burstiness-aware
// model for one mix: the fitted I values plus per-population accuracy.
type Figure12Result struct {
	Mix     string
	IFront  float64
	IDB     float64
	PaperIF float64
	PaperID float64
	Rows    []AccuracyRow
}

// Figure12 reproduces the headline validation (Fig. 12): for each of the
// three mixes, fit MAP(2)s from Zestim = 7 s measurements, then compare
// the MAP queueing network and the MVA baseline against measured
// throughput across the EB sweep at Zqn = 0.5 s.
func Figure12(seed int64, scale Scale, populations []int) ([]Figure12Result, error) {
	if len(populations) == 0 {
		populations = []int{25, 50, 75, 100, 125, 150}
	}
	paperI := map[string][2]float64{
		"browsing": {40, 308},
		"shopping": {2, 286},
		"ordering": {3, 98},
	}
	suite := measurementSuite("figure12", scale, standardMixNames(), 0.5, populations, seed+3000)
	srep, err := runMeasurement(suite, 13)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 12: %w", err)
	}
	allMeasured := measuredThroughputs(srep)
	var out []Figure12Result
	for m, mix := range tpcw.StandardMixes() {
		chars, err := fitCharacterizations(mix, 7, 50, seed, scale)
		if err != nil {
			return nil, err
		}
		plan, err := planAt(chars, scale)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 12 plan for %s: %w", mix.Name, err)
		}
		measured := allMeasured[m*len(populations) : (m+1)*len(populations)]
		acc, err := plan.Compare(populations, measured)
		if err != nil {
			return nil, err
		}
		res := Figure12Result{
			Mix:     mix.Name,
			IFront:  chars[0].IndexOfDispersion,
			IDB:     chars[1].IndexOfDispersion,
			PaperIF: paperI[mix.Name][0],
			PaperID: paperI[mix.Name][1],
		}
		for _, a := range acc {
			res.Rows = append(res.Rows, AccuracyRow{
				Mix: mix.Name, EBs: a.EBs,
				Measured: a.Measured,
				MVA:      a.MVAPredicted, MVAErr: a.MVARelativeError,
				MAPModel: a.MAPPredicted, MAPErr: a.MAPRelativeError,
			})
		}
		out = append(out, res)
	}
	return out, nil
}

func relError(pred, actual float64) float64 {
	d := pred - actual
	if d < 0 {
		d = -d
	}
	return d / actual
}

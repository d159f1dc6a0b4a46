package mapqn

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/markov"
	"repro/internal/mva"
)

// NetworkBoundsResult brackets the throughput of a K-station MAP
// queueing network at one population without solving the CTMC. The paper
// notes (Section 4.2) that exact solution becomes infeasible for very
// large EB counts — e.g., Z = 7 s would need ~1200 EBs to reach heavy
// load — and points to the bound analysis of [Casale, Mi & Smirni,
// SIGMETRICS'08]. The bounds here follow that spirit with two
// product-form evaluations:
//
//   - Upper: exact MVA on the mean demands. Burstiness redistributes
//     service capacity in time but cannot add any; the renewal
//     (gamma = 0) network is the most efficient arrangement of the same
//     marginal work, so its throughput dominates.
//   - Lower: exact MVA on pessimistic demands, where each station serves
//     every job at its slowest phase rate (the worst sustained regime the
//     modulating chain can pin the station in).
//
// Both evaluations cost O(N*K) instead of a CTMC over the full
// population-phase lattice, so they scale to arbitrary populations.
type NetworkBoundsResult struct {
	Customers int     `json:"customers"`
	UpperX    float64 `json:"upper_x"`
	LowerX    float64 `json:"lower_x"`
	// UpperDemands[i] and LowerDemands[i] are the per-station demands the
	// two product-form evaluations used.
	UpperDemands []float64 `json:"upper_demands"`
	LowerDemands []float64 `json:"lower_demands"`
	// StationNames labels the demand slices.
	StationNames []string `json:"station_names"`
}

// NetworkBounds computes throughput bounds for the K-station network at
// its population.
func NetworkBounds(m NetworkModel) (NetworkBoundsResult, error) {
	if err := m.Validate(); err != nil {
		return NetworkBoundsResult{}, err
	}
	k := len(m.Stations)
	names := m.StationNames()
	upperD := make([]float64, k)
	lowerD := make([]float64, k)
	for i, st := range m.Stations {
		em, err := st.effectiveMAP()
		if err != nil {
			return NetworkBoundsResult{}, fmt.Errorf("mapqn: station %d (%s): %w", i, st.Name, err)
		}
		upperD[i] = em.Mean()
		slow, err := slowPhaseDemand(em)
		if err != nil {
			return NetworkBoundsResult{}, fmt.Errorf("mapqn: station %d (%s): %w", i, st.Name, err)
		}
		// For a smoother-than-exponential MAP (SCV < 1, e.g. an
		// Erlang-like fit) the slowest phase completes faster than the
		// marginal mean, which would invert the bounds; the pessimistic
		// demand is never below the mean demand.
		lowerD[i] = math.Max(slow, upperD[i])
	}
	upper, err := mva.Solve(mva.ModelN(upperD, names, m.ThinkTime), m.Customers)
	if err != nil {
		return NetworkBoundsResult{}, fmt.Errorf("mapqn: upper bound: %w", err)
	}
	lower, err := mva.Solve(mva.ModelN(lowerD, names, m.ThinkTime), m.Customers)
	if err != nil {
		return NetworkBoundsResult{}, fmt.Errorf("mapqn: lower bound: %w", err)
	}
	return NetworkBoundsResult{
		Customers:    m.Customers,
		UpperX:       upper.Throughput,
		LowerX:       lower.Throughput,
		UpperDemands: upperD,
		LowerDemands: lowerD,
		StationNames: names,
	}, nil
}

// slowPhaseDemand returns the mean service time conditional on the
// slowest phase of the MAP: 1 over the smallest total completion rate
// among phases.
func slowPhaseDemand(m *markov.MAP) (float64, error) {
	rates := m.D1.RowSums()
	min := math.Inf(1)
	for j, r := range rates {
		// A phase without direct completions exits through D0 first; its
		// effective completion rate is bounded by the total exit rate.
		if r <= 0 {
			r = -m.D0.At(j, j)
		}
		if r < min {
			min = r
		}
	}
	if min <= 0 || math.IsInf(min, 1) {
		return 0, errors.New("mapqn: MAP has no completing phase")
	}
	return 1 / min, nil
}

// NetworkBoundsSweep evaluates NetworkBounds at each population.
func NetworkBoundsSweep(stations []Station, thinkTime float64, populations []int) ([]NetworkBoundsResult, error) {
	out := make([]NetworkBoundsResult, 0, len(populations))
	for _, n := range populations {
		b, err := NetworkBounds(NetworkModel{Stations: stations, ThinkTime: thinkTime, Customers: n})
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

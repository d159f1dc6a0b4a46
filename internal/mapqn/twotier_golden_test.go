package mapqn

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/ctmc"
)

// The two-tier golden file is the equivalence evidence for the paper's
// front+DB model as the K=2 case of the N-station solver. It was written
// once, by the last version of this package that still carried a
// dedicated two-station solver (its own triangular state space,
// generator and metrics), and is never regenerated. For each case it
// holds, as float64 bit patterns:
//
//   - network: the K=2 SolveNetworkCtx metrics at each population;
//   - two_station: the dedicated solver's metrics for the same network.
//
// The cases are two bursty MAP(2) networks at Z = 0.5 s, each with the
// station phases frozen and free-running while idle. The populations span
// the direct dense solve (N = 1) and the iterative solvers. The station
// MAPs are stored in the file, so the pin does not depend on the MAP
// fitter.
const twoTierGoldenPath = "testdata/twotier_golden.json"

// twoTierMetrics is one population's solution in golden form, with the
// two-station layout mapped onto per-station slices (front first).
type twoTierMetrics struct {
	Customers    int         `json:"customers"`
	Throughput   f64bits     `json:"throughput"`
	ResponseTime f64bits     `json:"response_time"`
	Utils        []f64bits   `json:"utils"`
	QueueLens    []f64bits   `json:"queue_lens"`
	QueueDists   [][]f64bits `json:"queue_dists"`
	Thinking     f64bits     `json:"thinking"`
	States       int         `json:"states"`
}

type twoTierCase struct {
	Name               string           `json:"name"`
	Stations           []goldenStation  `json:"stations"`
	ThinkTime          f64bits          `json:"think_time"`
	PhasesRunWhileIdle bool             `json:"phases_run_while_idle"`
	Network            []twoTierMetrics `json:"network"`
	TwoStation         []twoTierMetrics `json:"two_station"`
}

func twoTierFromMetrics(n int, m NetworkMetrics) twoTierMetrics {
	dists := make([][]f64bits, len(m.QueueDists))
	for i, d := range m.QueueDists {
		dists[i] = toBits(d)
	}
	return twoTierMetrics{
		Customers:    n,
		Throughput:   f64bits(m.Throughput),
		ResponseTime: f64bits(m.ResponseTime),
		Utils:        toBits(m.Utils),
		QueueLens:    toBits(m.QueueLens),
		QueueDists:   dists,
		Thinking:     f64bits(m.Thinking),
		States:       m.States,
	}
}

// values flattens the metrics for a tolerance comparison.
func (m twoTierMetrics) values() []f64bits {
	out := []f64bits{m.Throughput, m.ResponseTime, m.Thinking}
	out = append(out, m.Utils...)
	out = append(out, m.QueueLens...)
	for _, d := range m.QueueDists {
		out = append(out, d...)
	}
	return out
}

// loadTwoTierCases reads the committed golden file.
func loadTwoTierCases(t *testing.T) []twoTierCase {
	t.Helper()
	b, err := os.ReadFile(twoTierGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []twoTierCase
	if err := json.Unmarshal(b, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("golden file holds no cases")
	}
	return cases
}

// solveTwoTierCase solves the case's K=2 network at every recorded
// population and returns the metrics in golden form.
func solveTwoTierCase(t *testing.T, c twoTierCase) []twoTierMetrics {
	t.Helper()
	stations := make([]Station, len(c.Stations))
	for i, g := range c.Stations {
		stations[i] = g.station(t)
	}
	if len(c.Network) == 0 || len(c.TwoStation) != len(c.Network) {
		t.Fatalf("%d network and %d two-station records", len(c.Network), len(c.TwoStation))
	}
	out := make([]twoTierMetrics, len(c.Network))
	for i, want := range c.Network {
		m, err := SolveNetworkCtx(context.Background(), NetworkModel{
			Stations: stations, ThinkTime: float64(c.ThinkTime),
			Customers: want.Customers, PhasesRunWhileIdle: c.PhasesRunWhileIdle,
		}, ctmc.Options{})
		if err != nil {
			t.Fatalf("N=%d: %v", want.Customers, err)
		}
		out[i] = twoTierFromMetrics(want.Customers, m)
	}
	return out
}

// checkAgainstTwoStation compares a live K=2 solve of every case selected
// by keep with the dedicated two-station solver's record: the state
// counts must be equal and every metric within 1e-9.
func checkAgainstTwoStation(t *testing.T, keep func(name string) bool) {
	ran := 0
	for _, c := range loadTwoTierCases(t) {
		if !keep(c.Name) {
			continue
		}
		ran++
		t.Run(c.Name, func(t *testing.T) {
			for i, got := range solveTwoTierCase(t, c) {
				two := c.TwoStation[i]
				if two.Customers != got.Customers || two.States != got.States {
					t.Fatalf("N=%d: %d states; two-station record has N=%d, %d states",
						got.Customers, got.States, two.Customers, two.States)
				}
				g, ref := got.values(), two.values()
				if len(g) != len(ref) {
					t.Fatalf("N=%d: %d values, %d two-station values", got.Customers, len(g), len(ref))
				}
				for k := range ref {
					if d := math.Abs(float64(g[k] - ref[k])); d > 1e-9*math.Max(1, math.Abs(float64(ref[k]))) {
						t.Errorf("N=%d: value %d = %v, two-station solver %v", got.Customers, k, g[k], ref[k])
					}
				}
			}
		})
	}
	if ran == 0 {
		t.Fatal("golden file holds no matching cases")
	}
}

// TestTwoTierGolden pins the K=2 exact solve bit for bit against the
// committed golden file.
func TestTwoTierGolden(t *testing.T) {
	for _, c := range loadTwoTierCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			for i, got := range solveTwoTierCase(t, c) {
				want := c.Network[i]
				g, _ := json.Marshal(got)
				w, _ := json.Marshal(want)
				if string(g) != string(w) {
					t.Errorf("N=%d: metrics differ from golden\n got %.400s\nwant %.400s", want.Customers, g, w)
				}
			}
		})
	}
}

// TestNetworkMatchesLegacyTwoTier: the K=2 N-station solver must
// reproduce the dedicated two-station solver to within 1e-9 on every
// metric, for the bursty networks at N = 1 (direct dense solve) and
// N = 8, 12, 40 (iterative solvers), with idle phases frozen and
// free-running. The two-station values come from the golden file.
func TestNetworkMatchesLegacyTwoTier(t *testing.T) {
	checkAgainstTwoStation(t, func(name string) bool { return strings.HasPrefix(name, "bursty") })
}

// TestGeneratorMatchesLegacyTwoTier: at N = 9 the K=2 state layout must
// have the two-station solver's triangular state count, and the solve of
// the K=2 generator must agree with the two-station generator's solve to
// within 1e-9 on every metric. The two-station values come from the
// golden file.
func TestGeneratorMatchesLegacyTwoTier(t *testing.T) {
	checkAgainstTwoStation(t, func(name string) bool { return strings.HasPrefix(name, "generator") })
}

package mapqn

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/markov"
	"repro/internal/matrix"
)

// The decomposition golden file pins every number SolveNetworkDecomp and
// SolveNetworkDecompSweep report, as float64 bit patterns, over a fixed
// set of networks: K=1 bursty (frozen and free-running idle phases),
// K=2 product form, K=2 with a visit ratio, K=3 mixing phase orders,
// K=4 and K=6 bursty sweeps up to N=300 and one non-converging K=6
// sweep. The station MAPs are stored
// in the file as well, so the pin does not depend on the MAP fitter.
// Regenerate it only for an intended numeric change:
//
//	go test ./internal/mapqn -run TestDecompGolden -update-decomp-golden
var updateDecompGolden = flag.Bool("update-decomp-golden", false,
	"rewrite testdata/decomp_golden.json from the current decomposition solver")

const decompGoldenPath = "testdata/decomp_golden.json"

// f64bits is a float64 that round-trips through JSON as its exact bit
// pattern ("0x" + 16 hex digits), so the golden file compares bit for
// bit and can hold any value.
type f64bits float64

func (f f64bits) MarshalJSON() ([]byte, error) {
	return json.Marshal(fmt.Sprintf("0x%016x", math.Float64bits(float64(f))))
}

func (f *f64bits) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	u, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return err
	}
	*f = f64bits(math.Float64frombits(u))
	return nil
}

func toBits(v []float64) []f64bits {
	out := make([]f64bits, len(v))
	for i, x := range v {
		out[i] = f64bits(x)
	}
	return out
}

type goldenStation struct {
	Name   string    `json:"name"`
	Visits f64bits   `json:"visits"`
	Order  int       `json:"order"`
	D0     []f64bits `json:"d0"` // row-major
	D1     []f64bits `json:"d1"`
}

type goldenMetrics struct {
	Customers          int         `json:"customers"`
	Throughput         f64bits     `json:"throughput"`
	ResponseTime       f64bits     `json:"response_time"`
	Utils              []f64bits   `json:"utils"`
	QueueLens          []f64bits   `json:"queue_lens"`
	QueueDists         [][]f64bits `json:"queue_dists"`
	Thinking           f64bits     `json:"thinking"`
	States             int         `json:"states"`
	SolverIterations   int         `json:"solver_iterations"`
	FixedPointResidual f64bits     `json:"fixed_point_residual"`
}

type goldenCase struct {
	Name               string          `json:"name"`
	Stations           []goldenStation `json:"stations"`
	ThinkTime          f64bits         `json:"think_time"`
	PhasesRunWhileIdle bool            `json:"phases_run_while_idle"`
	// Sweep selects one warm-started SolveNetworkDecompSweep over
	// Populations; otherwise every population is a cold solve.
	Sweep       bool            `json:"sweep"`
	Populations []int           `json:"populations"`
	Metrics     []goldenMetrics `json:"metrics,omitempty"`
	Error       string          `json:"error,omitempty"`
}

func goldenFromMetrics(n int, m NetworkMetrics) goldenMetrics {
	dists := make([][]f64bits, len(m.QueueDists))
	for i, d := range m.QueueDists {
		dists[i] = toBits(d)
	}
	return goldenMetrics{
		Customers:          n,
		Throughput:         f64bits(m.Throughput),
		ResponseTime:       f64bits(m.ResponseTime),
		Utils:              toBits(m.Utils),
		QueueLens:          toBits(m.QueueLens),
		QueueDists:         dists,
		Thinking:           f64bits(m.Thinking),
		States:             m.States,
		SolverIterations:   m.SolverIterations,
		FixedPointResidual: f64bits(m.FixedPointResidual),
	}
}

func (g goldenStation) station(t *testing.T) Station {
	t.Helper()
	dense := func(v []f64bits) *matrix.Dense {
		d := matrix.NewDense(g.Order, g.Order)
		for i, x := range v {
			d.Data[i] = float64(x)
		}
		return d
	}
	mp, err := markov.New(dense(g.D0), dense(g.D1))
	if err != nil {
		t.Fatalf("station %s: %v", g.Name, err)
	}
	return Station{Name: g.Name, MAP: mp, Visits: float64(g.Visits)}
}

func stationGolden(s Station) goldenStation {
	return goldenStation{
		Name:   s.Name,
		Visits: f64bits(s.Visits),
		Order:  s.MAP.Order(),
		D0:     toBits(s.MAP.D0.Data),
		D1:     toBits(s.MAP.D1.Data),
	}
}

// run solves the case with the current solver and returns the observed
// metrics or error text in golden form.
func (c goldenCase) run(t *testing.T) goldenCase {
	t.Helper()
	stations := make([]Station, len(c.Stations))
	for i, g := range c.Stations {
		stations[i] = g.station(t)
	}
	out := c
	out.Metrics, out.Error = nil, ""
	z := float64(c.ThinkTime)
	if c.Sweep {
		mets, err := SolveNetworkDecompSweepCtx(context.Background(), stations, z, c.Populations, DecompOptions{}, nil)
		if err != nil {
			out.Error = err.Error()
			return out
		}
		for i, m := range mets {
			out.Metrics = append(out.Metrics, goldenFromMetrics(c.Populations[i], m))
		}
		return out
	}
	for _, n := range c.Populations {
		m, err := SolveNetworkDecompCtx(context.Background(), NetworkModel{
			Stations: stations, ThinkTime: z, Customers: n, PhasesRunWhileIdle: c.PhasesRunWhileIdle,
		}, DecompOptions{})
		if err != nil {
			out.Error = fmt.Sprintf("N=%d: %v", n, err)
			return out
		}
		out.Metrics = append(out.Metrics, goldenFromMetrics(n, m))
	}
	return out
}

// decompGoldenCases builds the pinned networks from MAP fits; only the
// -update-decomp-golden path calls it; the test itself reads the fitted
// MAPs back from the golden file.
func decompGoldenCases(t *testing.T) []goldenCase {
	st := func(name string, mean, i, p95 float64) Station {
		return Station{Name: name, MAP: fitMAP(t, mean, i, p95)}
	}
	exp := func(name string, mean float64) Station {
		return Station{Name: name, MAP: expMAP(t, mean)}
	}
	enc := func(stations ...Station) []goldenStation {
		out := make([]goldenStation, len(stations))
		for i, s := range stations {
			out[i] = stationGolden(s)
		}
		return out
	}
	k1 := enc(st("db", 0.005, 120, 0.03))
	frontVisits := st("front", 0.0068, 4, 0.021)
	frontVisits.Visits = 2
	k2 := enc(frontVisits, st("db", 0.0046, 40, 0.019))
	// The BenchmarkSolveDecomp networks.
	lb, front, cache := st("lb", 0.002, 4, 0.008), st("front", 0.004, 40, 0.02), st("cache", 0.0025, 10, 0.009)
	app, search, db := st("app", 0.006, 120, 0.04), st("search", 0.005, 60, 0.03), st("db", 0.003, 25, 0.01)
	k4 := enc(lb, front, app, db)
	k6 := enc(lb, front, cache, app, search, db)
	// The perfbench decomp-wide grid's tiers with the given app1 and db
	// indices of dispersion.
	wide := func(app1I, dbI float64) []goldenStation {
		return enc(
			st("front", 0.004, 40, 0.016), st("app1", 0.006, app1I, 0.024), st("app2", 0.005, 10, 0.02),
			st("auth", 0.002, 4, 0.008), st("cache", 0.0025, 10, 0.01), st("db", 0.007, dbI, 0.028))
	}
	return []goldenCase{
		{Name: "k1-bursty", Stations: k1, ThinkTime: 0.4, Populations: []int{1, 5, 20, 60}},
		{Name: "k1-bursty-idle-run", Stations: k1, ThinkTime: 0.4, PhasesRunWhileIdle: true, Populations: []int{1, 5, 20, 60}},
		{Name: "k2-product-form", Stations: enc(exp("front", 0.004), exp("db", 0.007)), ThinkTime: 0.3, Populations: []int{1, 10, 40}},
		{Name: "k2-bursty-visits", Stations: k2, ThinkTime: 0.5, Populations: []int{10, 50}},
		{Name: "k3-mixed-orders", Stations: enc(st("front", 0.004, 40, 0.02), exp("app", 0.005), st("db", 0.003, 25, 0.01)), ThinkTime: 0.5, Populations: []int{40}},
		{Name: "k4-sweep", Stations: k4, ThinkTime: 0.5, Sweep: true, Populations: []int{50, 100, 200, 300}},
		{Name: "k4-idle-run", Stations: k4, ThinkTime: 0.5, PhasesRunWhileIdle: true, Populations: []int{100, 300}},
		{Name: "k6-sweep", Stations: wide(4, 40), ThinkTime: 0.5, Sweep: true, Populations: []int{50, 150, 300}},
		{Name: "k6-cold", Stations: k6, ThinkTime: 0.5, Populations: []int{50, 200}},
		// decomp-wide's app1 I=100 x db I=400, Z=0.5 cell: the fixed
		// point does not converge at N=200.
		{Name: "k6-nonconverging", Stations: wide(100, 400), ThinkTime: 0.5, Sweep: true, Populations: []int{50, 100, 150, 200, 250, 300}},
	}
}

// TestDecompGolden pins the decomposition solver's output bit for bit
// against the committed golden file.
func TestDecompGolden(t *testing.T) {
	if *updateDecompGolden {
		var cases []goldenCase
		for _, c := range decompGoldenCases(t) {
			cases = append(cases, c.run(t))
		}
		b, err := json.MarshalIndent(cases, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(decompGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decompGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(decompGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(b, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("golden file holds no cases")
	}
	for _, want := range cases {
		t.Run(want.Name, func(t *testing.T) {
			got := want.run(t)
			if got.Error != want.Error {
				t.Fatalf("error = %q, want %q", got.Error, want.Error)
			}
			if len(got.Metrics) != len(want.Metrics) {
				t.Fatalf("%d populations solved, want %d", len(got.Metrics), len(want.Metrics))
			}
			for i := range want.Metrics {
				g, _ := json.Marshal(got.Metrics[i])
				w, _ := json.Marshal(want.Metrics[i])
				if string(g) != string(w) {
					t.Errorf("N=%d: metrics differ from golden\n got %.400s\nwant %.400s", want.Metrics[i].Customers, g, w)
				}
			}
		})
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/trace"
)

// SolverKind selects one evaluation method of a Scenario. A scenario may
// request any combination; each adds its own columns to the Report.
type SolverKind string

const (
	// SolverMAP solves the exact K-station MAP queueing network (CTMC)
	// at every population — the paper's burstiness-aware model.
	SolverMAP SolverKind = "map"
	// SolverMVA solves the classical product-form MVA baseline.
	SolverMVA SolverKind = "mva"
	// SolverDecomp solves the MAP network approximately by per-station
	// aggregation/disaggregation (mapqn.SolveNetworkDecompCtx): K small
	// level chains coupled through a damped fixed point on effective
	// demands, O(K*N*phases) states total. It sits between SolverMAP
	// (exact, combinatorial state space) and SolverBounds (brackets
	// only): a scenario listing both map and decomp gets the relative
	// throughput error recorded per population (DecompError).
	SolverDecomp SolverKind = "decomp"
	// SolverBounds brackets the MAP network's throughput with two O(N*K)
	// product-form evaluations, usable far beyond exact CTMC reach.
	SolverBounds SolverKind = "bounds"
	// SolverSim runs the replicated N-tier TPC-W testbed simulation.
	SolverSim SolverKind = "sim"
	// SolverCrossValidate closes the paper's loop: simulate, characterize
	// the tiers from the simulated monitoring streams, solve the MAP and
	// MVA models, and report model-vs-simulation deltas.
	SolverCrossValidate SolverKind = "crossvalidate"
)

// knownSolvers lists every valid SolverKind.
var knownSolvers = []SolverKind{SolverMAP, SolverMVA, SolverDecomp, SolverBounds, SolverSim, SolverCrossValidate}

// Valid reports whether k names a known solver.
func (k SolverKind) Valid() bool {
	for _, s := range knownSolvers {
		if k == s {
			return true
		}
	}
	return false
}

// ZeroWindow is the sentinel for WorkloadSpec.Warmup / Cooldown meaning
// "exactly zero seconds": a literal 0 means unset (testbed defaults
// apply), any negative value an explicitly empty window. It mirrors
// tpcw.ZeroWindow, which the simulator applies (a facade test pins the
// two constants together).
const ZeroWindow = -1.0

// TierSpec declares one tier of a Scenario. Exactly one input form must
// be given: an explicit service characterization (Mean, and optionally
// IndexOfDispersion and P95), or raw monitoring samples (Samples), which
// the pipeline characterizes with the paper's Section 4.1 estimators.
type TierSpec struct {
	// Name labels the tier ("front", "app", "db", ...). Empty names get
	// positional defaults.
	Name string `json:"name,omitempty"`

	// Mean is the mean service time in seconds (explicit form).
	Mean float64 `json:"mean,omitempty"`
	// IndexOfDispersion is the service process's index of dispersion I
	// (explicit form; 0 defaults to 1, i.e. Poisson-like).
	IndexOfDispersion float64 `json:"index_of_dispersion,omitempty"`
	// P95 is the 95th percentile of service times in seconds (explicit
	// form; 0 means unmeasured).
	P95 float64 `json:"p95,omitempty"`

	// Samples is the raw coarse monitoring stream (measured form).
	Samples *trace.UtilizationSamples `json:"samples,omitempty"`

	// Visits is the tier's visit ratio per think-to-think cycle
	// (0 defaults to 1).
	Visits float64 `json:"visits,omitempty"`
}

// validate checks that the spec names exactly one input form.
func (t TierSpec) validate(i int) error {
	explicit := t.Mean != 0 || t.IndexOfDispersion != 0 || t.P95 != 0
	switch {
	case explicit && t.Samples != nil:
		return fmt.Errorf("core: tier %d (%s): give either an explicit characterization or samples, not both", i, t.Name)
	case !explicit && t.Samples == nil:
		return fmt.Errorf("core: tier %d (%s): needs a mean service time or monitoring samples", i, t.Name)
	case explicit && t.Mean <= 0:
		return fmt.Errorf("core: tier %d (%s): mean service time %v must be > 0", i, t.Name, t.Mean)
	case explicit && t.IndexOfDispersion < 0:
		return fmt.Errorf("core: tier %d (%s): index of dispersion %v must be >= 0", i, t.Name, t.IndexOfDispersion)
	case explicit && t.P95 < 0:
		return fmt.Errorf("core: tier %d (%s): p95 %v must be >= 0", i, t.Name, t.P95)
	case t.Samples != nil:
		if err := t.Samples.Validate(); err != nil {
			return fmt.Errorf("core: tier %d (%s): %w", i, t.Name, err)
		}
	}
	if t.Visits < 0 {
		return fmt.Errorf("core: tier %d (%s): visit ratio %v must be >= 0", i, t.Name, t.Visits)
	}
	return nil
}

// ClassSpec declares one workload class of a multiclass scenario: a
// named share of the population with its own think time and per-tier
// demands. Scenarios without classes are single-class — the degenerate
// case every solver handled before classes existed — and their JSON and
// content hash are unchanged by this field's absence.
type ClassSpec struct {
	// Name labels the class ("browsing", "ordering", ...). Simulation-
	// backed solvers additionally require a name the testbed can measure
	// (see ValidSimClassNames).
	Name string `json:"name"`
	// Population fixes the class's customer count at every sweep point.
	// Mutually exclusive with Weight; 0 means unset.
	Population int `json:"population,omitempty"`
	// Weight is the class's mix weight: the population not claimed by
	// fixed-population classes is split proportionally to the weights
	// (largest-remainder rounding). Classes with neither Population nor
	// Weight default to weight 1.
	Weight float64 `json:"weight,omitempty"`
	// ThinkTime overrides the scenario think time for this class
	// (0 inherits Scenario.ThinkTime).
	ThinkTime float64 `json:"think_time,omitempty"`
	// TierDemands[i] overrides the class's mean service demand at tier i
	// in seconds, visits included (empty inherits every tier's aggregate
	// demand; a 0 entry inherits that one tier).
	TierDemands []float64 `json:"tier_demands,omitempty"`
}

// validate checks one class spec. tiers is the scenario's declared tier
// count (0 when only simulation solvers run).
func (c ClassSpec) validate(i, tiers int) error {
	if c.Name == "" {
		return fmt.Errorf("core: class %d needs a name", i)
	}
	if c.Population < 0 {
		return fmt.Errorf("core: class %d (%s): population %d must be >= 0", i, c.Name, c.Population)
	}
	if c.Weight < 0 {
		return fmt.Errorf("core: class %d (%s): weight %v must be >= 0", i, c.Name, c.Weight)
	}
	if c.Population > 0 && c.Weight > 0 {
		return fmt.Errorf("core: class %d (%s): give either a fixed population or a mix weight, not both", i, c.Name)
	}
	if c.ThinkTime < 0 {
		return fmt.Errorf("core: class %d (%s): think time %v must be >= 0", i, c.Name, c.ThinkTime)
	}
	if len(c.TierDemands) > 0 {
		if tiers == 0 {
			return fmt.Errorf("core: class %d (%s): tier demand overrides need declared tiers", i, c.Name)
		}
		if len(c.TierDemands) != tiers {
			return fmt.Errorf("core: class %d (%s): %d tier demands for %d tiers", i, c.Name, len(c.TierDemands), tiers)
		}
		for j, d := range c.TierDemands {
			if d < 0 {
				return fmt.Errorf("core: class %d (%s): tier %d demand %v must be >= 0", i, c.Name, j, d)
			}
		}
	}
	return nil
}

// ValidMixNames lists the named TPC-W transaction mixes a WorkloadSpec
// accepts. It is the source of truth for mix-name validation across the
// builder, grid expansion, and scenario validation.
var ValidMixNames = []string{"browsing", "shopping", "ordering"}

// ValidSimClassNames lists the workload class names the simulation-backed
// solvers can measure: the testbed groups its transaction types into
// these classes (tpcw.DefaultClasses — the two lists must stay in sync).
var ValidSimClassNames = []string{"browsing", "ordering"}

// nameIn reports whether name appears in the list.
func nameIn(name string, list []string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

// WorkloadSpec declares the simulated TPC-W testbed of a Scenario — the
// system the "sim" and "crossvalidate" solvers run. Field semantics match
// tpcw.ConfigN: zero values mean "use the testbed default".
type WorkloadSpec struct {
	// Mix names the transaction mix: "browsing", "shopping" or
	// "ordering" (default "browsing").
	Mix string `json:"mix,omitempty"`
	// Tiers is the number of simulated service tiers (default: the
	// number of declared scenario tiers, or 2).
	Tiers int `json:"tiers,omitempty"`
	// Duration is the simulated run length in seconds (default 1800).
	Duration float64 `json:"duration,omitempty"`
	// Warmup and Cooldown are the head/tail seconds excluded from
	// analysis (0 = defaults 120/60; negative = exactly zero, see
	// ZeroWindow). Must be whole multiples of MonitorPeriod.
	Warmup   float64 `json:"warmup,omitempty"`
	Cooldown float64 `json:"cooldown,omitempty"`
	// MonitorPeriod is the coarse measurement window in seconds
	// (default 5).
	MonitorPeriod float64 `json:"monitor_period,omitempty"`
	// Seed makes every replica family reproducible.
	Seed int64 `json:"seed,omitempty"`
	// StructureWeight blends CBMG structure against mix weights
	// (default 0.35).
	StructureWeight float64 `json:"structure_weight,omitempty"`
	// Replicas is the number of independently seeded replicas per
	// population (default 3).
	Replicas int `json:"replicas,omitempty"`
	// Workers caps the goroutines running replicas (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// KeepSamples retains the pooled per-tier monitoring streams in the
	// Report (they can dominate its size; off by default).
	KeepSamples bool `json:"keep_samples,omitempty"`
}

// Progress stage names, as reported in ProgressEvent.Stage. The same
// names identify pipeline stages in fault injection (FaultHook) and in
// per-cell failure records (CellError.Stage).
const (
	StageSimulate     = "simulate"
	StageCharacterize = "characterize"
	StageFit          = "fit"
	StageSolve        = "solve"
	StageValidate     = "validate"
	StageBounds       = "bounds"
)

// ProgressEvent is one progress notification from a running scenario.
type ProgressEvent struct {
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Population is the population level the event belongs to (0 for
	// population-independent stages such as characterization).
	Population int `json:"population,omitempty"`
	// Step and Total count progress within the stage (replicas done,
	// populations solved, tiers characterized, ...).
	Step  int `json:"step"`
	Total int `json:"total"`
}

// ProgressFunc observes scenario execution. Calls are serialized by the
// runner but may arrive from worker goroutines.
type ProgressFunc func(ProgressEvent)

// Scenario is the declarative description of one end-to-end experiment:
// the paper's measure → characterize → fit → solve → validate pipeline as
// data. Build one (directly, via ScenarioBuilder, or from JSON), then
// execute it with the facade's Run. The zero values of most fields mean
// "use the documented default"; WithDefaults materializes them.
//
// A Scenario round-trips through JSON: ParseScenario(sc.JSON()) runs
// identically to sc (the OnProgress callback is the only field excluded
// from serialization).
type Scenario struct {
	// Name labels the scenario in reports and logs.
	Name string `json:"name,omitempty"`
	// ThinkTime is the mean user think time Z in seconds, used by both
	// the analytical models and the simulated testbed.
	ThinkTime float64 `json:"think_time"`
	// Populations are the emulated-browser counts to evaluate, in sweep
	// order (ascending order lets the CTMC sweep warm-start each solve).
	Populations []int `json:"populations"`
	// Tiers declare the modeled tiers (required by the "map", "mva" and
	// "bounds" solvers; ignored by "sim" and "crossvalidate", which take
	// the simulated testbed's tiers).
	Tiers []TierSpec `json:"tiers,omitempty"`
	// Classes declare the workload classes of a multiclass scenario.
	// Empty means single-class: every solver behaves exactly as before
	// classes existed, and the scenario's canonical JSON and content hash
	// are unchanged. With classes, the analytic path additionally solves
	// exact multiclass MVA (per-class demand vectors over the declared
	// tiers) and the simulation-backed solvers report per-class
	// measurements and validation errors.
	Classes []ClassSpec `json:"classes,omitempty"`
	// Workload declares the simulated testbed (required by the "sim" and
	// "crossvalidate" solvers).
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Solvers selects the evaluation methods. Empty defaults to
	// [map, mva] when tiers are declared, else [crossvalidate] when a
	// workload is declared.
	Solvers []SolverKind `json:"solvers,omitempty"`
	// Planner tunes the estimation, fitting, and CTMC solver stages
	// (nil for defaults). TierSpec names take precedence over
	// Planner.TierNames.
	Planner *PlannerOptions `json:"planner,omitempty"`
	// Deadline bounds one run of this scenario in seconds (0 = no limit).
	// In a suite it is the per-cell deadline. When the deadline expires
	// during the exact MAP solve, the run degrades to NetworkBounds
	// (Report.Degraded) instead of failing; other stages fail with
	// context.DeadlineExceeded. The deadline is part of the scenario's
	// content hash: changing it re-runs resumed cells.
	Deadline float64 `json:"deadline,omitempty"`

	// OnProgress, when non-nil, observes execution. It is never
	// serialized.
	OnProgress ProgressFunc `json:"-"`
}

// WithDefaults returns the scenario with unset fields replaced by their
// documented defaults. Run applies it automatically.
func (s Scenario) WithDefaults() Scenario {
	if len(s.Solvers) == 0 {
		switch {
		case len(s.Tiers) > 0:
			s.Solvers = []SolverKind{SolverMAP, SolverMVA}
		case s.Workload != nil:
			s.Solvers = []SolverKind{SolverCrossValidate}
		}
	}
	if len(s.Classes) > 0 {
		classes := append([]ClassSpec(nil), s.Classes...)
		for i := range classes {
			if classes[i].Population == 0 && classes[i].Weight == 0 {
				classes[i].Weight = 1
			}
		}
		s.Classes = classes
	}
	if s.Workload != nil {
		wl := *s.Workload
		if wl.Mix == "" {
			wl.Mix = "browsing"
		}
		if wl.Tiers == 0 {
			wl.Tiers = len(s.Tiers)
			if wl.Tiers < 2 {
				wl.Tiers = 2
			}
		}
		if wl.Replicas == 0 {
			wl.Replicas = 3
		}
		s.Workload = &wl
	}
	return s
}

// Wants reports whether the scenario requests solver k.
func (s Scenario) Wants(k SolverKind) bool {
	for _, have := range s.Solvers {
		if have == k {
			return true
		}
	}
	return false
}

// WantsModel reports whether any analytical solver (map, mva, decomp,
// bounds) is requested — the ones that consume the declared tier specs.
func (s Scenario) WantsModel() bool {
	return s.Wants(SolverMAP) || s.Wants(SolverMVA) || s.Wants(SolverDecomp) || s.Wants(SolverBounds)
}

// WantsSimulation reports whether any simulation-backed solver (sim,
// crossvalidate) is requested — the ones that consume the workload spec.
func (s Scenario) WantsSimulation() bool {
	return s.Wants(SolverSim) || s.Wants(SolverCrossValidate)
}

// Multiclass reports whether the scenario declares workload classes.
func (s Scenario) Multiclass() bool { return len(s.Classes) > 0 }

// ClassNames returns the declared class names in order (nil when
// single-class).
func (s Scenario) ClassNames() []string {
	if len(s.Classes) == 0 {
		return nil
	}
	names := make([]string, len(s.Classes))
	for i, c := range s.Classes {
		names[i] = c.Name
	}
	return names
}

// Validate checks the scenario for structural problems. Call WithDefaults
// first when validating a scenario with unset fields.
func (s Scenario) Validate() error {
	if s.ThinkTime <= 0 {
		return fmt.Errorf("core: scenario think time %v must be > 0", s.ThinkTime)
	}
	if len(s.Populations) == 0 {
		return errors.New("core: scenario needs at least one population")
	}
	if s.Deadline < 0 {
		return fmt.Errorf("core: scenario deadline %v must be >= 0", s.Deadline)
	}
	for _, n := range s.Populations {
		if n < 1 {
			return fmt.Errorf("core: population %d must be >= 1", n)
		}
	}
	if len(s.Solvers) == 0 {
		return errors.New("core: scenario requests no solvers (declare tiers or a workload)")
	}
	seen := map[SolverKind]bool{}
	for _, k := range s.Solvers {
		if !k.Valid() {
			return fmt.Errorf("core: unknown solver %q (have %v)", k, knownSolvers)
		}
		if seen[k] {
			return fmt.Errorf("core: solver %q requested twice", k)
		}
		seen[k] = true
	}
	if s.WantsModel() {
		if len(s.Tiers) == 0 {
			return errors.New("core: the map/mva/bounds solvers need declared tiers")
		}
		for i, t := range s.Tiers {
			if err := t.validate(i); err != nil {
				return err
			}
		}
	}
	if s.WantsSimulation() {
		if s.Workload == nil {
			return errors.New("core: the sim/crossvalidate solvers need a workload")
		}
		if !nameIn(s.Workload.Mix, ValidMixNames) {
			return fmt.Errorf("core: unknown mix %q (want %s)", s.Workload.Mix, strings.Join(ValidMixNames, ", "))
		}
		if s.Workload.Tiers < 2 {
			return fmt.Errorf("core: workload tiers %d must be >= 2", s.Workload.Tiers)
		}
		if s.Workload.Replicas < 1 {
			return fmt.Errorf("core: workload replicas %d must be >= 1", s.Workload.Replicas)
		}
	}
	if len(s.Classes) > 0 {
		seen := map[string]bool{}
		for i, c := range s.Classes {
			if err := c.validate(i, len(s.Tiers)); err != nil {
				return err
			}
			if seen[c.Name] {
				return fmt.Errorf("core: class %q declared twice", c.Name)
			}
			seen[c.Name] = true
			if s.WantsSimulation() && !nameIn(c.Name, ValidSimClassNames) {
				return fmt.Errorf("core: class %q cannot be measured by the sim/crossvalidate solvers (want %s)",
					c.Name, strings.Join(ValidSimClassNames, ", "))
			}
		}
		if s.WantsSimulation() {
			// The testbed's classes must partition its transaction set, so
			// a simulated multiclass scenario has to declare all of them.
			for _, want := range ValidSimClassNames {
				if !seen[want] {
					return fmt.Errorf("core: sim/crossvalidate multiclass scenarios must declare every testbed class (missing %q; want %s)",
						want, strings.Join(ValidSimClassNames, ", "))
				}
			}
		}
		// Every sweep point must be splittable into per-class counts.
		for _, n := range s.Populations {
			if _, err := SplitPopulation(s.Classes, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// JSON serializes the scenario as indented, human-editable JSON —
// the format ParseScenario and the burstlab CLI read. The output is
// canonical (object keys sorted, numbers in Go's shortest round-trip
// form), so serializing the same scenario always yields the same bytes
// and the content hash (Scenario.Hash) is stable across runs.
func (s Scenario) JSON() ([]byte, error) {
	canon, err := CanonicalJSON(s)
	if err != nil {
		return nil, fmt.Errorf("core: encode scenario: %w", err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, canon, "", "  "); err != nil {
		return nil, fmt.Errorf("core: encode scenario: %w", err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// ParseScenario decodes a scenario from JSON. Unknown fields are
// rejected, so typos in a scenario file fail loudly instead of silently
// running the default.
func ParseScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("core: parse scenario: %w", err)
	}
	if dec.More() {
		return Scenario{}, errors.New("core: parse scenario: trailing data after the scenario object")
	}
	return s, nil
}

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("core: %w", err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("core: %s: %w", path, err)
	}
	return sc, nil
}

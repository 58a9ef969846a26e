// Package scenario turns a cluster experiment into a serializable,
// CI-assertable artifact. A Scenario file bundles the topology and
// workload (a cluster.Config), an optional hand-written fault plan
// (inside the config), an optional seeded chaos generator (ChaosSpec),
// the policies to run it under, and a list of metric assertions. One
// file is one reproducible claim about the simulator: "this cluster,
// under these faults, delivers at least this much goodput and violates
// no runtime invariant".
//
// The package also houses the runtime invariant checker
// (CheckInvariants): structural properties every run must satisfy
// regardless of configuration — no strip issued without a terminal
// account, retry budgets respected, histogram and span counts agreeing,
// the simulated clock monotonic, crashed servers silent. Scenarios run
// them by default; `saisim run` and `make scenarios` turn violations
// into nonzero exits.
//
// A Study (study.go) sweeps a scenario over a grid of config deltas,
// policies and seeds and reports metric columns. A scenario is a study
// of one point: both file kinds decode through ReadStudy, and Run and
// RunStudy share one runner. `saisim run` runs either kind of file, or
// inline name=v1,v2 dims (ParseSweep).
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/irqsched"
)

// Scenario is one serializable experiment with assertions.
type Scenario struct {
	// Name identifies the scenario in reports; required.
	Name string
	// Description says what claim the scenario checks.
	Description string `json:",omitempty"`
	// Config is the cluster under test. In a scenario file it is
	// decoded over cluster.DefaultConfig, so files state only what they
	// change — exactly like `saisim -config`.
	Config cluster.Config
	// Policies lists the scheduling policies to run the scenario under
	// (registered irqsched names). Empty means the config's own
	// policy. Assertions and invariants must hold for every policy.
	Policies []string `json:",omitempty"`
	// Chaos, when set, derives a randomized-but-deterministic fault
	// timeline from the scenario seed and merges it into the config's
	// fault plan (faults.Merge).
	Chaos *ChaosSpec `json:",omitempty"`
	// Assertions are metric predicates evaluated against each run's
	// Result; any failure makes the scenario fail.
	Assertions []Assertion `json:",omitempty"`
	// SkipInvariants disables the runtime invariant checker — only for
	// scenarios that deliberately construct states the checker rejects.
	SkipInvariants bool `json:",omitempty"`
}

// Validate checks the scenario shape: a name, resolvable policies,
// well-formed assertions, a generatable chaos spec, and a config that
// — with the chaos timeline merged in — passes cluster validation for
// every policy. A scenario that validates cannot fail to start.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	for _, a := range s.Assertions {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	policies, err := s.policyKinds()
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	for _, pol := range policies {
		cfg, err := s.materialize(pol)
		if err != nil {
			return fmt.Errorf("scenario %s (%s): %w", s.Name, pol, err)
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("scenario %s (%s): %w", s.Name, pol, err)
		}
	}
	return nil
}

// policyKinds resolves Policies, defaulting to the config's own.
func (s *Scenario) policyKinds() ([]irqsched.PolicyKind, error) {
	if len(s.Policies) == 0 {
		return []irqsched.PolicyKind{s.Config.Policy}, nil
	}
	kinds := make([]irqsched.PolicyKind, len(s.Policies))
	for i, name := range s.Policies {
		k, err := irqsched.ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		kinds[i] = k
	}
	return kinds, nil
}

// materialize builds the runnable config for one policy: the scenario
// config with the policy applied and the generated chaos timeline
// merged into its fault plan.
func (s *Scenario) materialize(pol irqsched.PolicyKind) (cluster.Config, error) {
	cfg := s.Config
	cfg.Policy = pol
	if s.Chaos != nil {
		plan, err := s.Chaos.Generate(cfg.Seed, cfg.Servers, cfg.Clients)
		if err != nil {
			return cluster.Config{}, err
		}
		cfg.Faults = faults.Merge(cfg.Faults, plan)
	}
	return cfg, nil
}

// Read parses and validates a scenario through ReadStudy, the one
// decoder of scenario and study files; a study file is an error.
func Read(r io.Reader) (*Scenario, error) {
	s, err := ReadStudy(r)
	if err != nil {
		return nil, err
	}
	if !s.IsScenario() {
		return nil, fmt.Errorf("scenario %s: a study (it sets Dims, Seeds or Columns), not a scenario", s.Name)
	}
	return &s.Scenario, nil
}

// Load reads a scenario file.
func Load(path string) (*Scenario, error) { return load(path, Read) }

// decode parses one JSON document from r over v's current contents,
// rejecting unknown fields.
func decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing: %w", err)
	}
	return nil
}

// load opens path and parses it with read, naming the file in errors.
func load[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	v, err := read(f)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

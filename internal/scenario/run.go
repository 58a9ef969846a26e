package scenario

import (
	"context"
	"fmt"
	"strings"

	"sais/cluster"
	"sais/internal/irqsched"
)

// RunResult is one policy's outcome: the cluster result plus the
// invariant violations and assertion failures found in it.
type RunResult struct {
	Policy     string
	Result     *cluster.Result
	Violations []Violation
	Failures   []string
}

// Passed reports whether the run broke nothing.
func (r *RunResult) Passed() bool {
	return len(r.Violations) == 0 && len(r.Failures) == 0
}

// findings writes one line per invariant violation and assertion
// failure of the run, each behind prefix.
func (r *RunResult) findings(b *strings.Builder, prefix string) {
	for _, v := range r.Violations {
		fmt.Fprintf(b, "%sinvariant %s\n", prefix, v)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(b, "%sassert %s\n", prefix, f)
	}
}

// Run executes the scenario under every listed policy, as a study of
// one point with Seeds 0, so each run keeps the config's own seed. Each
// run is checked against the runtime invariants (unless SkipInvariants)
// and the assertions. The error covers scenario-level failures (bad
// spec, cancelled run); assertion and invariant outcomes live in the
// report's runs.
func Run(ctx context.Context, s *Scenario) (*StudyReport, error) {
	st := &Study{Scenario: *s}
	return st.runPoints(ctx, []point{{cfg: s.Config}}, 1)
}

// Summary renders the report as the lines `saisim run` prints for a
// scenario: one PASS/FAIL line per run with bandwidth and fault counts,
// then one line per violation or assertion failure.
func (r *StudyReport) Summary() string {
	var b strings.Builder
	for _, row := range r.Rows {
		for k := range row.Runs {
			run := &row.Runs[k]
			status := "PASS"
			if !run.Passed() {
				status = "FAIL"
			}
			res := run.Result
			fmt.Fprintf(&b, "%s %s [%s]: %v in %v, %d failed, %d partial, %d retries\n",
				status, r.Study.Name, run.Policy, res.Bandwidth, res.Duration,
				res.Faults.FailedOps, res.Faults.PartialOps, res.Retries)
			run.findings(&b, "  ")
		}
	}
	return b.String()
}

// run executes the scenario under one policy: the spanned cluster run,
// the invariant checker, and the assertions that apply to the policy.
func (s *Scenario) run(ctx context.Context, pol irqsched.PolicyKind) (RunResult, error) {
	cfg, err := s.materialize(pol)
	if err != nil {
		return RunResult{}, err
	}
	res, log, err := cluster.RunSpannedContext(ctx, cfg)
	if err != nil {
		return RunResult{}, fmt.Errorf("scenario %s (%s): %w", s.Name, pol, err)
	}
	run := RunResult{Policy: pol.String(), Result: res}
	if !s.SkipInvariants {
		run.Violations = CheckInvariants(cfg, res, log)
	}
	for _, a := range s.Assertions {
		if !a.Applies(run.Policy) {
			continue
		}
		got, ok, err := a.Eval(res)
		if err != nil {
			return RunResult{}, fmt.Errorf("scenario %s (%s): %w", s.Name, pol, err)
		}
		if !ok {
			run.Failures = append(run.Failures,
				fmt.Sprintf("%s: got %g", a, got))
		}
	}
	return run, nil
}

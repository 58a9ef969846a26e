package scenario

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"sais/cluster"
	"sais/internal/irqsched"
	"sais/internal/metrics"
	"sais/internal/runner"
)

// Study is a Scenario swept over a grid: the cross product of its Dims,
// crossed with its policies and repeated under Seeds seeds, reported as
// one row of Columns per (point, policy). It is the paper's evaluation
// shape (§V: configurations × policies, averaged over seeded runs) as a
// file. Every run goes through the scenario machinery — the invariant
// checker and the assertions included — so a study cell that breaks an
// invariant is a finding, not a number.
type Study struct {
	Scenario
	// Dims are the sweep dimensions, outermost first. No dims means one
	// point: the scenario config itself.
	Dims []Dim `json:",omitempty"`
	// Seeds repeats every cell under seeds 1..Seeds (0 counts as 1),
	// overriding the config's own Seed.
	Seeds int `json:",omitempty"`
	// Columns are the reported metrics, named from the assertion
	// vocabulary (MetricNames).
	Columns []Column
}

// Dim is one sweep dimension: a name (its report column) and values.
type Dim struct {
	Name   string
	Values []DimValue
}

// DimValue is one value of a dimension: the label printed in the dim's
// column and a cluster.Config delta. The delta is JSON decoded over a
// copy of the point's config, so it states only what it changes: null
// clears a field, and objects and slice elements merge field by field,
// as encoding/json decodes over existing values.
type DimValue struct {
	Label  string
	Config json.RawMessage `json:",omitempty"`
}

// Column is one reported metric: its mean over the seeds or, with Sum,
// its total.
type Column struct {
	Metric string
	Sum    bool `json:",omitempty"`
}

// StudyError is the error a malformed study is rejected with.
type StudyError struct {
	Study string // the study name, when known
	Err   error
}

func (e *StudyError) Error() string {
	return strings.TrimSpace("study "+e.Study) + ": " + e.Err.Error()
}

func (e *StudyError) Unwrap() error { return e.Err }

// Validate checks the study shape — seeds, columns, dims — and then
// every point of the grid as a Scenario (Scenario.Validate), so a study
// that validates cannot fail to start. Errors are *StudyError.
func (s *Study) Validate() error {
	_, _, err := s.check()
	return err
}

// check validates the study and returns its grid points and policies.
func (s *Study) check() (pts []point, policies []irqsched.PolicyKind, err error) {
	defer func() {
		if err != nil {
			pts, policies, err = nil, nil, &StudyError{Study: s.Name, Err: err}
		}
	}()
	if s.Seeds < 0 {
		return nil, nil, fmt.Errorf("negative seeds %d", s.Seeds)
	}
	if len(s.Columns) == 0 {
		return nil, nil, fmt.Errorf("no columns")
	}
	for _, c := range s.Columns {
		if _, ok := metricFns[c.Metric]; !ok {
			return nil, nil, fmt.Errorf("column: unknown metric %q (want one of %v)", c.Metric, MetricNames())
		}
	}
	names := map[string]bool{"policy": true}
	for _, d := range s.Dims {
		if d.Name == "" || names[d.Name] {
			return nil, nil, fmt.Errorf("dim name %q is empty or taken", d.Name)
		}
		names[d.Name] = true
		if len(d.Values) == 0 {
			return nil, nil, fmt.Errorf("dim %s has no values", d.Name)
		}
		for _, v := range d.Values {
			if v.Label == "" {
				return nil, nil, fmt.Errorf("dim %s has a value without a label", d.Name)
			}
		}
	}
	if pts, err = s.points(); err != nil {
		return nil, nil, err
	}
	for _, p := range pts {
		sc := s.Scenario
		sc.Config = p.cfg
		if err := sc.Validate(); err != nil {
			return nil, nil, fmt.Errorf("point %s: %w", p.name, err)
		}
	}
	policies, err = s.policyKinds()
	return pts, policies, err
}

// point is one grid point: its dim labels and its config.
type point struct {
	labels []string
	name   string // "dim=label ..." for error messages
	cfg    cluster.Config
}

// points expands the grid, first dim outermost, applying each value's
// delta over a copy of the config built so far.
func (s *Study) points() ([]point, error) {
	pts := []point{{cfg: s.Config}}
	for _, d := range s.Dims {
		next := make([]point, 0, len(pts)*len(d.Values))
		for _, p := range pts {
			for _, v := range d.Values {
				name := strings.TrimSpace(p.name + " " + d.Name + "=" + v.Label)
				cfg, err := applyDelta(p.cfg, v.Config)
				if err != nil {
					return nil, fmt.Errorf("point %s: %w", name, err)
				}
				next = append(next, point{labels: append(slices.Clip(p.labels), v.Label), name: name, cfg: cfg})
			}
		}
		pts = next
	}
	return pts, nil
}

// applyDelta decodes delta over a copy of cfg. The copy's reference
// fields are cloned first: decoding into a non-nil pointer or slice
// reuses its storage, which would leak one cell's delta into its
// siblings and into the base config.
func applyDelta(cfg cluster.Config, delta json.RawMessage) (cluster.Config, error) {
	cfg.Faults = cfg.Faults.Clone()
	cfg.TenantMix = slices.Clone(cfg.TenantMix)
	if len(delta) == 0 {
		return cfg, nil
	}
	if err := decode(bytes.NewReader(delta), &cfg); err != nil {
		return cluster.Config{}, fmt.Errorf("config delta: %w", err)
	}
	return cfg, nil
}

// StudyRow is one (point, policy) cell of a study.
type StudyRow struct {
	Labels []string    // one per dim
	Policy string      // registered policy name
	Values []float64   // one per column
	Runs   []RunResult // one per seed, in seed order
}

// StudyReport is a completed study: one row per (point, policy), point
// outermost.
type StudyReport struct {
	Study *Study
	Rows  []StudyRow
}

// RunStudy runs every (point, policy, seed) task of the study on up to
// workers goroutines. Tasks land at fixed indices and rows fold their
// seeds in seed order, so the report is identical for any worker count.
// The error covers study-level failures (a study that fails Validate,
// a cancelled run); invariant and assertion outcomes live in the rows'
// Runs.
func RunStudy(ctx context.Context, s *Study, workers int) (*StudyReport, error) {
	pts, policies, err := s.check()
	if err != nil {
		return nil, err
	}
	runs := max(s.Seeds, 1)
	perPoint := len(policies) * runs
	//lint:goroutine runner.Map joins all workers and returns rows in point order; per-cell output is seed-deterministic
	tasks, err := runner.Map(ctx, len(pts)*perPoint, runner.Options{Workers: workers},
		func(ctx context.Context, i int) (RunResult, error) {
			p := pts[i/perPoint]
			sc := s.Scenario
			sc.Config = p.cfg
			sc.Config.Seed = uint64(i%runs + 1)
			run, err := sc.run(ctx, policies[i/runs%len(policies)])
			if err != nil {
				return RunResult{}, fmt.Errorf("study %s point %q seed %d: %w", s.Name, p.name, sc.Config.Seed, err)
			}
			return run, nil
		})
	if err != nil {
		return nil, err
	}
	rep := &StudyReport{Study: s, Rows: make([]StudyRow, len(tasks)/runs)}
	for r := range rep.Rows {
		row := &rep.Rows[r]
		row.Labels = pts[r/len(policies)].labels
		row.Policy = policies[r%len(policies)].String()
		row.Runs = tasks[r*runs : (r+1)*runs]
		row.Values = make([]float64, len(s.Columns))
		for c, col := range s.Columns {
			var mean metrics.Summary
			var sum float64
			for k := range row.Runs {
				v := metricFns[col.Metric](row.Runs[k].Result)
				mean.Add(v)
				sum += v
			}
			row.Values[c] = mean.Mean()
			if col.Sum {
				row.Values[c] = sum
			}
		}
	}
	return rep, nil
}

// Passed reports whether every run satisfied every invariant and
// assertion.
func (r *StudyReport) Passed() bool { return r.Findings() == "" }

// Findings lists every invariant violation and assertion failure, one
// line each, prefixed by the cell and seed that produced it; it is
// empty when the study passed.
func (r *StudyReport) Findings() string {
	var b strings.Builder
	for _, row := range r.Rows {
		for k, run := range row.Runs {
			cell := strings.Join(append(slices.Clip(row.Labels), row.Policy), " ")
			run.findings(&b, fmt.Sprintf("%s seed %d: ", cell, k+1))
		}
	}
	return b.String()
}

// lines renders the report's header (dim names, policy, metrics) and
// rows, formatting the values with format.
func (r *StudyReport) lines(format func(float64) string) [][]string {
	head := make([]string, 0, len(r.Study.Dims)+1+len(r.Study.Columns))
	for _, d := range r.Study.Dims {
		head = append(head, d.Name)
	}
	head = append(head, "policy")
	for _, c := range r.Study.Columns {
		head = append(head, c.Metric)
	}
	lines := [][]string{head}
	for _, row := range r.Rows {
		l := append(slices.Clip(row.Labels), row.Policy)
		for _, v := range row.Values {
			l = append(l, format(v))
		}
		lines = append(lines, l)
	}
	return lines
}

// CSV renders the report as comma-separated rows under a header line,
// each value in the shortest form that round-trips exactly.
func (r *StudyReport) CSV() string {
	var b strings.Builder
	for _, l := range r.lines(func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }) {
		b.WriteString(strings.Join(l, ",") + "\n")
	}
	return b.String()
}

// Table renders the report as aligned text columns under the study's
// description (or name), values to three decimals (integers without).
func (r *StudyReport) Table() string {
	var b strings.Builder
	b.WriteString(cmp.Or(r.Study.Description, r.Study.Name) + "\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, l := range r.lines(func(v float64) string {
		return strings.TrimSuffix(strconv.FormatFloat(v, 'f', 3, 64), ".000")
	}) {
		fmt.Fprintln(tw, strings.Join(l, "\t"))
	}
	tw.Flush() //lint:close flushes into a strings.Builder, whose writes cannot fail
	return b.String()
}

// ReadStudy parses and validates a study. As with Read, the Config
// block decodes over cluster.DefaultConfig and unknown fields anywhere
// are rejected; every error is a *StudyError.
func ReadStudy(r io.Reader) (*Study, error) {
	s := &Study{Scenario: Scenario{Config: cluster.DefaultConfig()}}
	if err := decode(r, s); err != nil {
		return nil, &StudyError{Err: err}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadStudy reads a study file.
func LoadStudy(path string) (*Study, error) { return load(path, ReadStudy) }

package scenario

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"sais/cluster"
	"sais/internal/metrics"
	"sais/internal/runner"
	"sais/internal/textplot"
)

// Study is a Scenario swept over a grid: the cross product of its Dims,
// crossed with its policies and repeated under Seeds seeds, reported as
// one row of Columns per (point, policy). It is the paper's evaluation
// shape (§V: configurations × policies, averaged over seeded runs) as a
// file. Every run goes through the scenario machinery — the invariant
// checker and the assertions included — so a study cell that breaks an
// invariant is a finding, not a number. A study without Policies runs
// each point under its own config's policy, which a dim value may set.
type Study struct {
	Scenario
	// Dims are the sweep dimensions, outermost first. No dims means one
	// point: the scenario config itself.
	Dims []Dim `json:",omitempty"`
	// Seeds repeats every cell under seeds 1..Seeds, overriding the
	// config's own Seed; 0 runs each cell once under the config's Seed.
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

// Column is one reported metric and its statistic over the seeds: Stat
// "" (the mean), "sum", "ci95" (the half-width of the mean's 95 %
// confidence interval) or "change" (metrics.Speedup of the mean over
// the first listed policy's mean at the same point, 0 on that policy's
// own rows; signed, so -0.4 reads as 40 % lower).
type Column struct {
	Metric string
	Stat   string `json:",omitempty"`
}

// name is the column's report header: the metric, suffixed by a ci95
// or change statistic.
func (c Column) name() string {
	if c.Stat == "ci95" || c.Stat == "change" {
		return c.Metric + "_" + c.Stat
	}
	return c.Metric
}

// StudyError is the error a malformed study is rejected with.
type StudyError struct {
	Study string // the study name, when known
	Err   error
}

func (e *StudyError) Error() string {
	return strings.TrimSpace("study "+e.Study) + ": " + e.Err.Error()
}

// Validate checks the study shape — seeds, columns, dims — and then
// every point of the grid as a Scenario (Scenario.Validate), so a study
// that validates cannot fail to start. Errors are *StudyError.
func (s *Study) Validate() error {
	_, err := s.check()
	return err
}

// check validates the study and returns its grid points.
func (s *Study) check() (pts []point, err error) {
	defer func() {
		if err != nil {
			pts, err = nil, &StudyError{Study: s.Name, Err: err}
		}
	}()
	if s.Seeds < 0 {
		return nil, fmt.Errorf("negative seeds %d", s.Seeds)
	}
	if len(s.Columns) == 0 {
		return nil, fmt.Errorf("no columns")
	}
	for _, c := range s.Columns {
		if _, ok := metricFns[c.Metric]; !ok {
			return nil, fmt.Errorf("column: unknown metric %q (want one of %v)", c.Metric, MetricNames())
		}
		switch c.Stat {
		case "", "sum", "ci95":
		case "change":
			if len(s.Policies) < 2 {
				return nil, fmt.Errorf("column %s: change needs at least two policies", c.name())
			}
		default:
			return nil, fmt.Errorf("column %s: unknown stat %q (want sum, ci95 or change)", c.Metric, c.Stat)
		}
	}
	names := map[string]bool{"policy": true}
	for _, d := range s.Dims {
		if d.Name == "" || names[d.Name] {
			return nil, fmt.Errorf("dim name %q is empty or taken", d.Name)
		}
		names[d.Name] = true
		if len(d.Values) == 0 {
			return nil, fmt.Errorf("dim %s has no values", d.Name)
		}
		for _, v := range d.Values {
			if v.Label == "" {
				return nil, fmt.Errorf("dim %s has a value without a label", d.Name)
			}
			if setsSeed(v.Config) {
				return nil, fmt.Errorf("dim %s=%s sets Seed, which is not a dim; set Seeds (-seeds) instead", d.Name, v.Label)
			}
		}
	}
	if pts, err = s.points(); err != nil {
		return nil, err
	}
	for _, p := range pts {
		sc := s.Scenario
		sc.Config = p.cfg
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("point %s: %w", p.name, err)
		}
	}
	return pts, nil
}

// setsSeed reports whether a config delta names Seed.
func setsSeed(delta json.RawMessage) bool {
	var probe struct{ Seed json.RawMessage }
	return json.Unmarshal(delta, &probe) == nil && probe.Seed != nil
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
// Runs. When a run fails or ctx ends, the report still holds every row
// whose seeds all finished, so an interrupted study prints its partial
// results.
func RunStudy(ctx context.Context, s *Study, workers int) (*StudyReport, error) {
	pts, err := s.check()
	if err != nil {
		return nil, err
	}
	return s.runPoints(ctx, pts, workers)
}

// runPoints runs every policy under every seed at each point and folds
// the runs into rows.
func (s *Study) runPoints(ctx context.Context, pts []point, workers int) (*StudyReport, error) {
	npol, runs := max(len(s.Policies), 1), max(s.Seeds, 1)
	perPoint := npol * runs
	//lint:goroutine runner.Map joins all workers and returns rows in point order; per-cell output is seed-deterministic
	tasks, err := runner.Map(ctx, len(pts)*perPoint, workers,
		func(ctx context.Context, i int) (RunResult, error) {
			p := pts[i/perPoint]
			sc := s.Scenario
			sc.Config = p.cfg
			sc.Config.Seed = s.seed(i % runs)
			policies, err := sc.policyKinds()
			if err != nil {
				return RunResult{}, err
			}
			run, err := sc.run(ctx, policies[i/runs%npol])
			if err != nil {
				return RunResult{}, fmt.Errorf("study %s point %q seed %d: %w", s.Name, p.name, sc.Config.Seed, err)
			}
			return run, nil
		})
	row := func(r int) []RunResult { return tasks[r*runs : (r+1)*runs] }
	finished := func(r int) bool {
		return !slices.ContainsFunc(row(r), func(run RunResult) bool { return run.Result == nil })
	}
	// change is row r's change against the first policy's row at its
	// point: 0 on that row itself, NaN when an interrupted study did not
	// finish it.
	change := func(r int, mean float64, metric string) float64 {
		switch base := r - r%npol; {
		case r == base:
			return 0
		case !finished(base):
			return math.NaN()
		default:
			b, _ := fold(row(base), metric)
			return metrics.Speedup(mean, b.Mean())
		}
	}
	rep := &StudyReport{Study: s}
	for r := range len(tasks) / runs {
		if !finished(r) {
			continue
		}
		sr := StudyRow{Labels: pts[r/npol].labels, Policy: row(r)[0].Policy, Runs: row(r),
			Values: make([]float64, len(s.Columns))}
		for c, col := range s.Columns {
			mean, sum := fold(sr.Runs, col.Metric)
			switch col.Stat {
			case "sum":
				sr.Values[c] = sum
			case "ci95":
				sr.Values[c] = mean.CI95()
			case "change":
				sr.Values[c] = change(r, mean.Mean(), col.Metric)
			default:
				sr.Values[c] = mean.Mean()
			}
		}
		rep.Rows = append(rep.Rows, sr)
	}
	return rep, err
}

// seed is the seed of a cell's k-th run: k+1 under Seeds, else the
// config's own (a dim cannot set it).
func (s *Study) seed(k int) uint64 {
	if s.Seeds > 0 {
		return uint64(k + 1)
	}
	return s.Config.Seed
}

// FirstRun returns the config of the study's first run: its first grid
// point under its first policy and first seed, chaos merged in. For a
// study of one point and at most one policy, as ParseSweep builds from
// single values, that is its only run.
func (s *Study) FirstRun() (cluster.Config, error) {
	pts, err := s.check()
	if err != nil {
		return cluster.Config{}, err
	}
	sc := s.Scenario
	sc.Config = pts[0].cfg
	sc.Config.Seed = s.seed(0)
	policies, _ := sc.policyKinds() // check validated every point's policies
	return sc.materialize(policies[0])
}

// fold summarizes one metric over a row's runs, in seed order.
func fold(runs []RunResult, metric string) (mean metrics.Summary, sum float64) {
	for k := range runs {
		v := metricFns[metric](runs[k].Result)
		mean.Add(v)
		sum += v
	}
	return mean, sum
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
			run.findings(&b, fmt.Sprintf("%s seed %d: ", cell, r.Study.seed(k)))
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
		head = append(head, c.name())
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
// title, values to four significant digits.
func (r *StudyReport) Table() string {
	var b strings.Builder
	b.WriteString(r.title() + "\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, l := range r.lines(tableValue) {
		fmt.Fprintln(tw, strings.Join(l, "\t"))
	}
	tw.Flush() //lint:close flushes into a strings.Builder, whose writes cannot fail
	return b.String()
}

// title is the study's description, or its name.
func (r *StudyReport) title() string { return cmp.Or(r.Study.Description, r.Study.Name) }

// tableValue formats a value for Table and WriteHTML.
func tableValue(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// Chart renders the first column as an ASCII bar chart: one bar group
// per point (its dim labels), one series per policy. A policy that did
// not run at a point shows a zero bar there.
func (r *StudyReport) Chart() (string, error) {
	ch := &textplot.Chart{Title: r.title() + " (" + r.Study.Columns[0].name() + ")"}
	labels, series := map[string]int{}, map[string]int{}
	for _, row := range r.Rows {
		l := strings.Join(row.Labels, " ")
		if _, ok := labels[l]; !ok {
			labels[l] = len(ch.Labels)
			ch.Labels = append(ch.Labels, l)
		}
		if _, ok := series[row.Policy]; !ok {
			series[row.Policy] = len(ch.Series)
			ch.Series = append(ch.Series, textplot.Series{Name: row.Policy})
		}
	}
	for i := range ch.Series {
		ch.Series[i].Values = make([]float64, len(ch.Labels))
	}
	for _, row := range r.Rows {
		ch.Series[series[row.Policy]].Values[labels[strings.Join(row.Labels, " ")]] = row.Values[0]
	}
	return ch.Render()
}

var htmlPage = template.Must(template.New("studies").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>SAIs study report</title>
<style>
 body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }
 h2 { font-size: 1.1rem; margin-top: 2rem; }
 table { border-collapse: collapse; }
 th, td { text-align: right; padding: .2rem .6rem; border-bottom: 1px solid #e3e3e3; font-size: .85rem; }
 th { color: #555; }
</style>
</head>
<body>
{{range .}}<h2>{{.Title}}</h2>
<table>
{{range $i, $l := .Lines}}<tr>{{range $l}}{{if eq $i 0}}<th>{{.}}</th>{{else}}<td>{{.}}</td>{{end}}{{end}}</tr>
{{end}}</table>
{{end}}</body>
</html>
`))

// WriteHTML renders the reports as one self-contained HTML page: per
// study its title and a table of the header and values Table prints.
func WriteHTML(w io.Writer, reports []*StudyReport) error {
	type section struct {
		Title string
		Lines [][]string
	}
	secs := make([]section, len(reports))
	for i, r := range reports {
		secs[i] = section{r.title(), r.lines(tableValue)}
	}
	return htmlPage.Execute(w, secs)
}

// ReadStudy parses and validates a study or scenario file: the one
// decoder of both kinds. As with every file, the Config block decodes
// over cluster.DefaultConfig and unknown fields anywhere are rejected.
// A file without Dims, Seeds or Columns is a scenario (IsScenario) and
// validates as one; any other file validates as a study, and its errors
// are *StudyError.
func ReadStudy(r io.Reader) (*Study, error) {
	s := &Study{Scenario: Scenario{Config: cluster.DefaultConfig()}}
	if err := decode(r, s); err != nil {
		return nil, &StudyError{Err: err}
	}
	validate := s.Validate
	if s.IsScenario() {
		validate = s.Scenario.Validate
	}
	if err := validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// IsScenario reports whether s sets no Dims, Seeds or Columns: a
// scenario, which Run runs and Summary reports.
func (s *Study) IsScenario() bool {
	return len(s.Dims) == 0 && s.Seeds == 0 && len(s.Columns) == 0
}

// LoadStudy reads a study or scenario file.
func LoadStudy(path string) (*Study, error) { return load(path, ReadStudy) }

// sweepColumns are the columns of a study built by ParseSweep.
var sweepColumns = []Column{
	{Metric: "bandwidth_mbps"}, {Metric: "cache_miss_rate"}, {Metric: "cpu_utilization"},
	{Metric: "unhalted_cycles"}, {Metric: "remote_lines"}, {Metric: "client_nic_busy"},
	{Metric: "disk_busy"},
}

// ParseSweep builds a study over base from inline dims, the command-line
// spelling of a study: each argument is name=v1,v2,... where name is a
// cluster.Config JSON field (matched case-insensitively; a dotted path
// nests, so costs.remoteline=300 is the delta {"costs":{"remoteline":300}})
// and each value is a JSON literal that also labels its rows. Values
// split at top-level commas only, so an object or array value may hold
// commas. policy=a,b names the study's policies instead, and seed=S sets
// the base config's seed (one value: seeds are Seeds, not a dim). A name
// may appear once. The study reports sweepColumns. Every error is a
// *StudyError.
func ParseSweep(base cluster.Config, args []string) (*Study, error) {
	s := &Study{
		Scenario: Scenario{Name: "sweep", Description: "sweep " + strings.Join(args, " "), Config: base},
		Columns:  slices.Clone(sweepColumns),
	}
	fail := func(format string, a ...any) (*Study, error) {
		return nil, &StudyError{Study: s.Name, Err: fmt.Errorf(format, a...)}
	}
	seen := map[string]bool{}
	for _, arg := range args {
		name, list, ok := strings.Cut(arg, "=")
		key, values := strings.ToLower(name), splitValues(list)
		switch {
		case !ok:
			return fail("argument %q is not name=v1,v2,...; study files and inline dims do not mix", arg)
		case name == "" || slices.Contains(values, ""):
			return fail("argument %q has an empty name or value", arg)
		case seen[key]:
			return fail("%s given twice", name)
		case key == "seed" && len(values) > 1:
			return fail("seed takes one value; set Seeds (-seeds) to run seeds 1..N")
		}
		seen[key] = true
		if key == "policy" {
			s.Policies = values
			continue
		}
		d := Dim{Name: name}
		for _, v := range values {
			if !json.Valid([]byte(v)) {
				return fail("%s: value %q is not a JSON literal", name, v)
			}
			delta, path := v, strings.Split(name, ".")
			for i := len(path) - 1; i >= 0; i-- {
				field, _ := json.Marshal(path[i]) // a string always marshals
				delta = "{" + string(field) + ":" + delta + "}"
			}
			d.Values = append(d.Values, DimValue{Label: v, Config: json.RawMessage(delta)})
		}
		if key == "seed" {
			var err error
			if s.Config, err = applyDelta(s.Config, d.Values[0].Config); err != nil {
				return fail("%w", err)
			}
			continue
		}
		s.Dims = append(s.Dims, d)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// splitValues splits a value list at its top-level commas: a comma
// inside brackets, braces or a JSON string belongs to its value.
func splitValues(list string) []string {
	var values []string
	depth, start, inString, escaped := 0, 0, false, false
	for i := 0; i < len(list); i++ {
		switch c := list[i]; {
		case inString:
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
		case c == '"':
			inString = true
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ',' && depth == 0:
			values = append(values, list[start:i])
			start = i + 1
		}
	}
	return append(values, list[start:])
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// saisim runs one command line and returns its exit code and output.
func saisim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// writeFile writes content to name under dir and returns its path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// docExamples maps every example line of the package doc to the
// command line the test runs for it: the same command with a budget
// small enough for a unit test. {dir} is a temporary directory holding
// cluster.json; globs expand from the repository root.
var docExamples = map[string][]string{
	`saisim`: {"bytesperproc=1048576"},
	`saisim policy=sais servers=48 transfersize=1048576`: {
		"policy=sais", "servers=48", "transfersize=1048576", "bytesperproc=1048576"},
	`saisim -json policy=sais 'faults={"Loss":0.01}' retrytimeout=20000000 maxretries=12`: {
		"-json", "policy=sais", `faults={"Loss":0.01}`, "retrytimeout=20000000", "maxretries=12", "bytesperproc=1048576"},
	`saisim -config cluster.json -save-config effective.json seed=7`: {
		"-config", "{dir}/cluster.json", "-save-config", "{dir}/effective.json", "seed=7"},
	`saisim -trace-out spans.json policy=sais`: {
		"-trace-out", "{dir}/spans.json", "policy=sais", "bytesperproc=1048576"},
	`saisim run`: {"run", "-seeds", "1", "-parallel", "2"},
	`saisim run scenarios/crash-recover.json studies/degraded.json`: {
		"run", "-seeds", "1", "scenarios/crash-recover.json", "studies/degraded.json"},
	`saisim run -csv -parallel 2 servers=8,16 policy=irqbalance,sais`: {
		"run", "-csv", "-parallel", "2", "servers=8,16", "policy=irqbalance,sais", "bytesperproc=1048576"},
	`saisim validate scenarios/*.json studies/*.json`: {"validate", "scenarios/*.json", "studies/*.json"},
	`saisim chaos -n 20 -seed 7`:                      {"chaos", "-n", "2", "-seed", "7"},
}

// TestDocExamplesRun: every example in the package doc is in
// docExamples, and each runs to exit 0 from the repository root.
func TestDocExamplesRun(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var doc []string
	for _, line := range strings.Split(string(src), "\n") {
		if ex, ok := strings.CutPrefix(line, "//\tsaisim"); ok {
			doc = append(doc, "saisim"+ex)
		}
	}
	var table []string
	for ex := range docExamples {
		table = append(table, ex)
	}
	sorted := slices.Clone(doc)
	slices.Sort(sorted)
	slices.Sort(table)
	if !reflect.DeepEqual(sorted, table) {
		t.Fatalf("package doc examples\n%q\ndiffer from docExamples\n%q", sorted, table)
	}
	dir := t.TempDir()
	writeFile(t, dir, "cluster.json", `{"BytesPerProc": 1048576, "TransferSize": 262144}`)
	// `saisim run` finds the paper's studies from the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	for _, ex := range doc {
		var args []string
		for _, a := range docExamples[ex] {
			a = strings.ReplaceAll(a, "{dir}", dir)
			if strings.Contains(a, "*") {
				matches, err := filepath.Glob(a)
				if err != nil || len(matches) == 0 {
					t.Fatalf("%s: glob %s matched nothing (%v)", ex, a, err)
				}
				args = append(args, matches...)
				continue
			}
			args = append(args, a)
		}
		if code, stdout, stderr := saisim(t, args...); code != 0 {
			t.Errorf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", ex, code, stdout, stderr)
		}
	}
	for _, f := range []string{"effective.json", "spans.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("an example did not write %s: %v", f, err)
		}
	}
}

// TestConfigFileKeepsEveryField: a -config file's settings reach the
// run and -save-config unchanged; no flag default overwrites them.
func TestConfigFileKeepsEveryField(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "f.json",
		`{"Servers": 4, "Policy": "roundrobin", "BytesPerProc": 2097152, "TransferSize": 262144, "Clients": 2, "ProcsPerClient": 1}`)
	out := filepath.Join(dir, "g.json")
	code, stdout, stderr := saisim(t, "-config", in, "-save-config", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "policy          roundrobin") {
		t.Errorf("the run did not use the file's policy:\n%s", stdout)
	}
	var want, got map[string]json.RawMessage
	for path, m := range map[string]*map[string]json.RawMessage{in: &want, out: &got} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, m); err != nil {
			t.Fatal(err)
		}
	}
	for field, v := range want {
		if !bytes.Equal(got[field], v) {
			t.Errorf("%s: saved %s, the file says %s", field, got[field], v)
		}
	}
}

// TestDeletedFlagsAreUsageErrors: every flag that used to set a config
// field, and the other retired flags, now fails with exit 2.
func TestDeletedFlagsAreUsageErrors(t *testing.T) {
	deleted := []string{"policy", "servers", "clients", "procs", "cores", "nic", "transfer", "bytes",
		"shared", "migrate", "seed", "loss", "crash", "crash-at", "revive-at", "retry", "max-retries",
		"background-users", "foreground-clients", "fault-plan", "tenant-mix", "bg-user-bps", "bg-colocate",
		"trace", "v", "progress"}
	for _, name := range deleted {
		if code, _, stderr := saisim(t, "-"+name+"=1"); code != 2 || !strings.Contains(stderr, "not defined") {
			t.Errorf("-%s: exit %d, stderr %q; want a usage error", name, code, stderr)
		}
	}
}

// TestUsageErrors: a name with several values in a single run, an
// invalid value, and a run flag that applies to none of the files all
// exit 2 with a message.
func TestUsageErrors(t *testing.T) {
	healthy := filepath.Join("..", "..", "scenarios", "healthy-baseline.json")
	degraded := filepath.Join("..", "..", "studies", "degraded.json")
	cases := map[string]struct {
		args []string
		want string
	}{
		"multi-valued name":   {[]string{"servers=4,8"}, "saisim run"},
		"multi-valued policy": {[]string{"policy=irqbalance,sais"}, "saisim run"},
		"invalid config":      {[]string{"servers=0"}, "servers"},
		"unknown field":       {[]string{"bogus=1"}, "bogus"},
		"csv on a scenario":   {[]string{"run", "-csv", healthy}, "-csv"},
		"seeds on a scenario": {[]string{"run", "-seeds", "2", healthy}, "-seeds"},
		"shards on a study":   {[]string{"run", "-shards", "4", degraded}, "-shards"},
		"plot with csv":       {[]string{"run", "-csv", "-plot", degraded}, "-plot"},
		"files and dims":      {[]string{"run", degraded, "servers=4,8"}, "do not mix"},
		"two chaos files":     {[]string{"chaos", healthy, healthy}, "at most one"},
		"no chaos iterations": {[]string{"chaos", "-n", "-1"}, "at least one iteration"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			code, _, stderr := saisim(t, tc.args...)
			if code != 2 || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stderr %q; want 2 and %q", code, stderr, tc.want)
			}
		})
	}
}

// TestValidate: every committed scenario and study file is valid; a
// file with an unknown field is not.
func TestValidate(t *testing.T) {
	var files []string
	for _, pattern := range []string{"scenarios/*.json", "studies/*.json"} {
		m, err := filepath.Glob(filepath.Join("..", "..", pattern))
		if err != nil || len(m) == 0 {
			t.Fatalf("%s matched nothing (%v)", pattern, err)
		}
		files = append(files, m...)
	}
	for _, f := range files {
		if code, stdout, stderr := saisim(t, "validate", f); code != 0 || stdout+stderr != "" {
			t.Errorf("validate %s: exit %d, output %q", f, code, stdout+stderr)
		}
	}
	dir := t.TempDir()
	for _, tc := range []struct{ file, config, want string }{
		{"bad.json", `{"Serverz": 4}`, "Serverz"},
		{"deleted-field.json", `{"FragmentWire": true}`, "FragmentWire"},
		// Decodes, but builds an invalid disk: validate must reject
		// what run would.
		{"bad-disk.json", `{"Disk": {"ElevatorWindow": 0}}`, "elevator window"},
	} {
		bad := writeFile(t, dir, tc.file, `{"Name": "x", "Config": `+tc.config+`}`)
		if code, _, stderr := saisim(t, "validate", bad); code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("validate %s: exit %d, stderr %q; want 2 naming %q", tc.file, code, stderr, tc.want)
		}
	}
}

// TestFailingAssertionExits1: a scenario whose assertion fails prints
// a FAIL line and exits 1.
func TestFailingAssertionExits1(t *testing.T) {
	path := writeFile(t, t.TempDir(), "impossible.json", `{
  "Name": "impossible",
  "Config": {"Servers": 4, "BytesPerProc": 1048576, "TransferSize": 262144},
  "Assertions": [{"Metric": "bandwidth_mbps", "Op": ">=", "Value": 1e9}]
}`)
	code, stdout, _ := saisim(t, "run", path)
	if code != 1 || !strings.HasPrefix(stdout, "FAIL impossible [irqbalance]") {
		t.Errorf("exit %d, stdout %q; want 1 and a FAIL line", code, stdout)
	}
}

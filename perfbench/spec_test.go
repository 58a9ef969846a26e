package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), committed) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with --spec")
	}
}

func TestReadmeDocumentsEveryMetric(t *testing.T) {
	doc, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := append([]metricDef(nil), endToEnd...)
	for _, m := range append(names, perLayer()...) {
		name := m.Name
		if l, ok := strings.CutSuffix(name, ".host_frac"); ok && l != "gc" && l != "other" {
			name = "host_frac"
		}
		if l, ok := strings.CutSuffix(name, ".allocs_per_strip"); ok && l != "other" && l != "tiny" {
			name = "allocs_per_strip"
		}
		if !bytes.Contains(doc, []byte("`"+name+"`")) {
			t.Errorf("README.md does not document `%s`", name)
		}
	}
	for _, w := range workloadNames {
		if !bytes.Contains(doc, []byte("`"+w+"`")) {
			t.Errorf("README.md does not document workload `%s`", w)
		}
	}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func invoke(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < minReps {
		t.Fatalf("checks: %s", out.String())
	}
	return r
}

func TestEndToEndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the lossy-write workload")
	}
	r := invoke(t, "--workload", "lossy-write", "--seed", "3", "--seconds", "0.1", "--trace", "0")
	if len(r.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(r.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Value <= 0 || got.Unit != m.Unit {
			t.Errorf("%s: %+v", m.Name, got)
		}
	}
}

func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sharded-256 workload under the profilers")
	}
	r := invoke(t, "--workload", "sharded-256", "--seed", "3", "--seconds", "0.5", "--trace", "1")
	defs := perLayer()
	if len(r.Metrics) != len(defs) {
		t.Fatalf("%d metrics, want %d", len(r.Metrics), len(defs))
	}
	var sum float64
	for _, l := range hostLayers {
		sum += r.Metrics[l+".host_frac"].Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("host fractions sum to %v", sum)
	}
	for _, name := range []string{"shard.rounds", "shard.events_per_round", "sim.events", "trace.spans", "shard.allocs_per_strip"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on the sharded workload", name, r.Metrics[name].Value)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig5-pair", "--trace", "2"},
		{"--workload", "fig5-pair", "--seconds", "0"},
		{"--workload", "fig5-pair", "--seconds", "NaN"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sais/internal/lint/analysis"
)

// TestCheckPackageFindsViolation drives the unitchecker entry point
// directly: a hand-built vet.cfg describing a one-file package with a
// seed+i bug must produce a seedderive diagnostic and a decodable vetx
// facts file.
func TestCheckPackageFindsViolation(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	const code = `package p

func fanOut(seed uint64, i uint64) uint64 { return seed + i }
`
	if err := os.WriteFile(src, []byte(code), 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "vet.out")
	cfg := vetConfig{
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "sais/internal/sim",
		GoFiles:    []string{src},
		ImportMap:  map[string]string{},
		VetxOutput: vetx,
	}
	js, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, js, 0o666); err != nil {
		t.Fatal(err)
	}

	diags, err := checkPackage(cfgPath, vetOptions{Format: "text"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0], "seedderive") || !strings.Contains(diags[0], "rng.Derive") {
		t.Errorf("diagnostics = %q, want one seedderive finding suggesting rng.Derive", diags)
	}
	data, err := os.ReadFile(vetx)
	if err != nil {
		t.Fatalf("vetx facts file not written: %v", err)
	}
	if _, ok := analysis.DecodeFacts(data); !ok {
		t.Errorf("vetx facts file for a sais package does not decode as saisvet facts: %q", data)
	}
}

// TestCheckPackageVetxOnlyForeign: dependency-only invocations for
// packages outside the sais module must write the no-facts marker and
// report nothing, without even parsing the package.
func TestCheckPackageVetxOnlyForeign(t *testing.T) {
	dir := t.TempDir()
	vetx := filepath.Join(dir, "vet.out")
	cfg := vetConfig{
		Compiler:   "gc",
		ImportPath: "example.com/foreign",
		GoFiles:    []string{filepath.Join(dir, "does-not-exist.go")},
		VetxOnly:   true,
		VetxOutput: vetx,
	}
	js, _ := json.Marshal(cfg)
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, js, 0o666); err != nil {
		t.Fatal(err)
	}
	diags, err := checkPackage(cfgPath, vetOptions{Format: "text"})
	if err != nil || len(diags) != 0 {
		t.Errorf("VetxOnly run: diags=%v err=%v, want none", diags, err)
	}
	data, err := os.ReadFile(vetx)
	if err != nil {
		t.Fatalf("vetx marker not written: %v", err)
	}
	if _, ok := analysis.DecodeFacts(data); ok {
		t.Errorf("foreign package vetx decoded as saisvet facts; want opaque marker")
	}
}

// TestCheckPackageVetxOnlySaisComputesFacts: a dependency-only pass
// over a sais-module package must still parse, type-check, and export
// real facts — that is the whole cross-package channel. The fixture
// spawns a goroutine, so the exported fact set must carry a
// goroutine taint for the spawning function, while the pass itself
// reports nothing (findings belong to the package's own vet run).
func TestCheckPackageVetxOnlySaisComputesFacts(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "helper.go")
	const code = `package helper

func Spawn(fn func()) {
	go fn()
}
`
	if err := os.WriteFile(src, []byte(code), 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "vet.out")
	cfg := vetConfig{
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "sais/internal/helper",
		GoFiles:    []string{src},
		ImportMap:  map[string]string{},
		VetxOnly:   true,
		VetxOutput: vetx,
	}
	js, _ := json.Marshal(cfg)
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, js, 0o666); err != nil {
		t.Fatal(err)
	}
	diags, err := checkPackage(cfgPath, vetOptions{Format: "text"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("VetxOnly pass reported diagnostics: %v", diags)
	}
	data, err := os.ReadFile(vetx)
	if err != nil {
		t.Fatalf("vetx facts file not written: %v", err)
	}
	pf, ok := analysis.DecodeFacts(data)
	if !ok {
		t.Fatalf("sais package vetx does not decode as facts: %q", data)
	}
	fact := pf.Functions["sais/internal/helper.Spawn"]
	if fact == nil || fact.Taints["goroutine"] == "" {
		t.Errorf("exported facts = %+v, want a goroutine taint on Spawn", pf.Functions)
	}
}

// TestFactsRoundTrip: facts written through the vetx encoding must
// decode to the same content, byte-stable across encodes (the go
// command caches vetx files by content).
func TestFactsRoundTrip(t *testing.T) {
	pf := &analysis.PackageFacts{
		Functions: map[string]*analysis.FunctionFact{
			"sais/internal/runner.Map":         {Taints: map[string]string{"goroutine": "spawns a goroutine at runner.go:57:2"}},
			"(*sais/internal/sim.Engine).Step": {AllocFree: true},
			"sais/internal/trace.ExportChrome": {AllocWhy: "map literal"},
		},
		HookFields: map[string]string{"sais/cluster.Config.Progress": "nilhook"},
		JSONStable: []string{"sais/cluster.Result", "sais/cluster.FaultReport"},
	}
	enc := analysis.EncodeFacts(pf)
	got, ok := analysis.DecodeFacts(enc)
	if !ok {
		t.Fatalf("encoded facts did not decode: %q", enc)
	}
	if got.Functions["sais/internal/runner.Map"].Taints["goroutine"] == "" ||
		!got.Functions["(*sais/internal/sim.Engine).Step"].AllocFree ||
		got.Functions["sais/internal/trace.ExportChrome"].AllocWhy != "map literal" ||
		got.HookFields["sais/cluster.Config.Progress"] != "nilhook" ||
		len(got.JSONStable) != 2 {
		t.Errorf("round-tripped facts lost content: %+v", got)
	}
	if enc2 := analysis.EncodeFacts(got); string(enc2) != string(enc) {
		t.Errorf("re-encoding decoded facts is not byte-stable:\n%q\n%q", enc, enc2)
	}
}

// TestGithubFormat: -format=github renders findings as GitHub Actions
// workflow commands with escaped newlines.
func TestGithubFormat(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	const code = `package p

func fanOut(seed uint64, i uint64) uint64 { return seed + i }
`
	if err := os.WriteFile(src, []byte(code), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg := vetConfig{
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "sais/internal/sim",
		GoFiles:    []string{src},
		ImportMap:  map[string]string{},
	}
	js, _ := json.Marshal(cfg)
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, js, 0o666); err != nil {
		t.Fatal(err)
	}
	diags, err := checkPackage(cfgPath, vetOptions{Format: "github"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.HasPrefix(diags[0], "::error file=") ||
		!strings.Contains(diags[0], "line=3") || !strings.Contains(diags[0], "(seedderive)") {
		t.Errorf("github diagnostics = %q, want one ::error annotation on line 3", diags)
	}
}

// buildSaisvet compiles the tool once into dir and returns the binary
// path.
func buildSaisvet(t *testing.T, repoRoot, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "saisvet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/saisvet")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building saisvet: %v\n%s", err, out)
	}
	return bin
}

// TestVetToolCleanOnRepo is the acceptance smoke test: build saisvet
// and run it through the real `go vet -vettool` protocol over the whole
// module — with -strict-waivers, exactly as `make lint` and CI do —
// which must be finding-free. This also exercises the -V=full buildID
// handshake, the -flags probe, the per-package cfg runs, the facts
// encode/decode across every package edge, and the export-data importer
// against every package in the tree.
func TestVetToolCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module go vet in -short mode")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := buildSaisvet(t, repoRoot, t.TempDir())

	vet := exec.Command("go", "vet", "-vettool="+bin, "-strict-waivers", "./...")
	vet.Dir = repoRoot
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool reported findings or failed: %v\n%s", err, out)
	}
}

// TestVetToolCrossPackageFacts proves the facts actually travel through
// the go command's vetx channel: a scratch module named sais contains a
// non-deterministic helper package whose exported function spawns a
// goroutine, and a deterministic package (sais/internal/sim by path)
// that calls it. Vetting the module must flag the cross-package call as
// goroutine-tainted — a finding that is only derivable by reading the
// helper's facts out of its dependency vetx file.
func TestVetToolCrossPackageFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("real go vet run in -short mode")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := buildSaisvet(t, repoRoot, dir)

	mod := filepath.Join(dir, "mod")
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(mod, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module sais\n\ngo 1.21\n")
	write("internal/helper/helper.go", `// Package helper is a scratch non-deterministic package.
package helper

// Spawn runs fn concurrently. Not reported here (the package is not in
// the deterministic set) but exported as a goroutine taint.
func Spawn(fn func()) {
	go fn()
}
`)
	write("internal/sim/sim.go", `// Package sim stands in for the deterministic event engine.
package sim

import "sais/internal/helper"

// Tick launders a goroutine spawn through the helper package.
func Tick() {
	helper.Spawn(func() {})
}
`)

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = mod
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet succeeded; want a cross-package goroutine-taint finding\n%s", out)
	}
	if !strings.Contains(string(out), "goroutine-tainted") || !strings.Contains(string(out), "helper.Spawn") {
		t.Errorf("vet output = %s, want a goroutine-tainted finding at the helper.Spawn call site", out)
	}
}

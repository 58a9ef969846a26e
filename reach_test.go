package sais

import (
	"os/exec"
	"strings"
	"testing"
)

// unreachedOK lists the packages no command imports, each with the
// reason it stays. A prefix ending in "/" covers every package below it.
var unreachedOK = map[string]string{
	"sais":                            "the module's doc package, home of the benchmark harness",
	"sais/examples/":                  "the walkthroughs of the cluster API, run by `make examples`",
	"sais/internal/lint/analysistest": "the analyzers' test harness, imported only by their tests",
}

// goList runs `go list` in dir with args and returns its standard output.
func goList(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s (in %s): %v", strings.Join(args, " "), dir, err)
	}
	return out
}

// TestEveryPackageServesACommand requires every module package with
// non-test Go files to be built into some command under cmd/ — or to be
// on unreachedOK with a reason. A mechanism that only its own tests
// reach is code to delete, not to keep.
func TestEveryPackageServesACommand(t *testing.T) {
	reached := map[string]bool{}
	for _, p := range strings.Fields(string(goList(t, ".", "-deps", "./cmd/..."))) {
		reached[p] = true
	}
	for _, p := range strings.Fields(string(goList(t, ".", "-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", "./..."))) {
		if reached[p] || exempt(p) {
			continue
		}
		t.Errorf("%s: no command under cmd/ imports it; delete it, wire it into a command, or list it in unreachedOK with a reason", p)
	}
	for p := range unreachedOK {
		if reached[strings.TrimSuffix(p, "/")] {
			t.Errorf("unreachedOK lists %s, which a command now imports; drop the entry", p)
		}
	}
}

func exempt(pkg string) bool {
	for p := range unreachedOK {
		if pkg == p || strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p) {
			return true
		}
	}
	return false
}

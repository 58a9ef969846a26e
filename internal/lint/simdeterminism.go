package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sais/internal/lint/analysis"
)

// SimDeterminism enforces the replayability ground rules. Three of its
// checks apply to all non-test code in the module, two only to the
// deterministic packages:
//
//   - wall clock (everywhere): calls to time.Now, time.Sleep,
//     time.Since, and friends make output depend on host timing.
//     Suppress a legitimate site (a stderr progress heartbeat, a
//     host-benchmark stopwatch) with //lint:wallclock.
//   - global math/rand (everywhere): the global generator is shared
//     mutable state outside the seed tree; all randomness must come
//     from sais/internal/rng Sources. Suppress with //lint:globalrand.
//   - go statements (deterministic packages only): goroutines
//     interleave nondeterministically; concurrency belongs in
//     internal/runner, above the simulator. Suppress with
//     //lint:goroutine, or — for a package whose design is built on a
//     controlled concurrency discipline — with a file-header
//     //lint:package goroutine waiver. No deterministic package
//     carries one today: internal/shard runs its rounds on the
//     calling goroutine.
//   - map range (deterministic packages only): map iteration order is
//     randomized per run, so any state mutation or output emitted from
//     such a loop can differ between replays. Sort the keys or keep a
//     slice; a loop whose body is genuinely order-independent (pure
//     commutative accumulation) may be annotated //lint:maporder with
//     the reason.
//   - tainted calls (deterministic packages only): a function is
//     tainted when it transitively reaches any of the hazards above —
//     computed per package and exported as facts through the vetx
//     channel, so the call graph is followed across package
//     boundaries. A deterministic package calling a tainted helper in
//     a non-deterministic package (the laundering path: a relaxed-scope
//     wrapper around a goroutine spawn or map range) is flagged at the
//     call site and suppressed with the hazard's own directive. A
//     //lint:-waived hazard does not taint: the waiver is the audit
//     that the invariant holds there.
var SimDeterminism = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall clocks, global math/rand, goroutines, map-ordered iteration, " +
		"and calls to transitively nondeterministic functions in the deterministic " +
		"simulator packages (suppress: //lint:wallclock, //lint:globalrand, " +
		"//lint:goroutine, //lint:maporder)",
	Directives: []string{"wallclock", "globalrand", "goroutine", "maporder"},
	Run:        runSimDeterminism,
}

// wallClockFuncs are the time package entry points that observe or wait
// on the host clock. Pure constructors and constants (time.Duration,
// time.Millisecond) stay legal: the hazard is reading the clock, not
// naming a unit.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// taintKinds orders the hazard kinds for deterministic diagnostics.
var taintKinds = []string{"wallclock", "globalrand", "goroutine", "maporder"}

// callSite records one static call edge out of a declared function.
type callSite struct {
	callee *types.Func
	pos    token.Pos
}

func runSimDeterminism(pass *analysis.Pass) (any, error) {
	dirs := pass.Directives()
	deterministic := isDeterministicPkg(pass.Pkg.Path())

	// taints[fn][kind] = provenance description. Seeded with the
	// unsuppressed direct hazards of this package's functions, then
	// propagated along static call edges to a fixpoint (cross-package
	// edges consult imported facts, so the propagation is transitive
	// over the whole dependency graph).
	taints := make(map[*types.Func]map[string]string)
	calls := make(map[*types.Func][]callSite)
	var fnOrder []*types.Func

	taint := func(fn *types.Func, kind, via string) {
		if fn == nil {
			return
		}
		m := taints[fn]
		if m == nil {
			m = make(map[string]string)
			taints[fn] = m
		}
		if _, ok := m[kind]; !ok {
			m[kind] = via
		}
	}

	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			var fn *types.Func
			if isFunc {
				fn, _ = pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn != nil {
					fnOrder = append(fnOrder, fn)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ImportSpec:
					path := importPath(n)
					if path == "math/rand" || path == "math/rand/v2" {
						if !dirs.Suppressed(n.Pos(), "globalrand") {
							pass.Reportf(n.Pos(), "import of %s: use sais/internal/rng so every draw hangs off an explicit seed", path)
						}
					}
				case *ast.SelectorExpr:
					obj := pass.TypesInfo.Uses[n.Sel]
					if obj == nil {
						return true
					}
					pkg := obj.Pkg()
					if pkg == nil {
						return true
					}
					switch {
					case pkg.Path() == "time" && wallClockFuncs[n.Sel.Name]:
						if !dirs.Suppressed(n.Pos(), "wallclock") {
							pass.Reportf(n.Pos(), "time.%s reads the wall clock: simulated time must come from the event engine (suppress a legitimate site with //lint:wallclock)", n.Sel.Name)
							taint(fn, "wallclock", fmt.Sprintf("uses time.%s at %s", n.Sel.Name, pass.Fset.Position(n.Pos())))
						}
					case pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2":
						if !dirs.Suppressed(n.Pos(), "globalrand") {
							taint(fn, "globalrand", fmt.Sprintf("uses %s.%s at %s", pkg.Path(), n.Sel.Name, pass.Fset.Position(n.Pos())))
						}
					}
				case *ast.GoStmt:
					if deterministic && !dirs.Suppressed(n.Pos(), "goroutine") {
						pass.Reportf(n.Pos(), "go statement in deterministic package %s: goroutine interleaving is not replayable; hoist concurrency into internal/runner", pass.Pkg.Path())
						taint(fn, "goroutine", fmt.Sprintf("spawns a goroutine at %s", pass.Fset.Position(n.Pos())))
					} else if !deterministic && !dirs.Suppressed(n.Pos(), "goroutine") {
						taint(fn, "goroutine", fmt.Sprintf("spawns a goroutine at %s", pass.Fset.Position(n.Pos())))
					}
				case *ast.RangeStmt:
					if n.X == nil {
						return true
					}
					t := pass.TypeOf(n.X)
					if t == nil {
						return true
					}
					if _, ok := t.Underlying().(*types.Map); !ok {
						return true
					}
					if deterministic {
						if !dirs.Suppressed(n.Pos(), "maporder") {
							pass.Reportf(n.Pos(), "range over map in deterministic package %s: iteration order varies per run; sort the keys first or keep a slice (//lint:maporder if provably order-independent)", pass.Pkg.Path())
							taint(fn, "maporder", fmt.Sprintf("ranges over a map at %s", pass.Fset.Position(n.Pos())))
						}
					} else if !dirs.Suppressed(n.Pos(), "maporder") {
						taint(fn, "maporder", fmt.Sprintf("ranges over a map at %s", pass.Fset.Position(n.Pos())))
					}
				case *ast.CallExpr:
					if fn == nil {
						return true
					}
					if callee := staticCallee(pass, n); callee != nil && callee != fn {
						calls[fn] = append(calls[fn], callSite{callee: callee, pos: n.Pos()})
					}
				}
				return true
			})
		}
	}

	// Seed cross-package taint from imported facts, then iterate the
	// same-package edges to a fixpoint. Functions are visited in source
	// order and a (fn, kind) pair keeps its first provenance, so the
	// exported facts are deterministic.
	calleeTaints := func(callee *types.Func) map[string]string {
		if callee.Pkg() == pass.Pkg {
			return taints[callee]
		}
		if fact, ok := pass.DepFunctionFact(callee); ok {
			return fact.Taints
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fnOrder {
			for _, cs := range calls[fn] {
				for _, kind := range taintKinds {
					via, tainted := calleeTaints(cs.callee)[kind]
					if !tainted {
						continue
					}
					if _, have := taints[fn][kind]; have {
						continue
					}
					taint(fn, kind, fmt.Sprintf("calls %s (%s)", calleeName(cs.callee), via))
					changed = true
				}
			}
		}
	}

	// Export the taint facts for dependent packages.
	for _, fn := range fnOrder {
		if m := taints[fn]; len(m) > 0 {
			fact := pass.Facts.Fact(fn.FullName())
			if fact.Taints == nil {
				fact.Taints = make(map[string]string)
			}
			for k, v := range m {
				fact.Taints[k] = clipVia(v)
			}
		}
	}

	// Transitive findings: a deterministic package calling a tainted
	// function declared in a non-deterministic package. Calls into
	// other deterministic packages are not re-reported here — an
	// unwaived hazard there is already a finding in its own package.
	if deterministic {
		var sites []callSite
		for _, fn := range fnOrder {
			sites = append(sites, calls[fn]...)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		for _, cs := range sites {
			pkg := cs.callee.Pkg()
			if pkg == nil || pkg == pass.Pkg || isDeterministicPkg(pkg.Path()) {
				continue
			}
			if !strings.HasPrefix(pkg.Path(), "sais/") && pkg.Path() != "sais" {
				continue // stdlib and foreign packages export no facts
			}
			fact, ok := pass.DepFunctionFact(cs.callee)
			if !ok {
				continue
			}
			for _, kind := range taintKinds {
				via, tainted := fact.Taints[kind]
				if !tainted || dirs.Suppressed(cs.pos, kind) {
					continue
				}
				pass.Reportf(cs.pos, "call from deterministic package %s to %s-tainted %s: %s (suppress a reviewed site with //lint:%s)",
					pass.Pkg.Path(), kind, calleeName(cs.callee), via, kind)
			}
		}
	}
	return nil, nil
}

// calleeName renders a function for diagnostics: package-qualified,
// with the receiver kept for methods.
func calleeName(fn *types.Func) string {
	return fn.FullName()
}

// clipVia bounds a provenance chain so deeply nested call paths don't
// balloon the facts file or the diagnostic line.
func clipVia(via string) string {
	const max = 240
	if len(via) <= max {
		return via
	}
	return via[:max] + "...)"
}

// importPath returns the unquoted import path of spec.
func importPath(spec *ast.ImportSpec) string {
	p := spec.Path.Value
	if len(p) >= 2 && p[0] == '"' && p[len(p)-1] == '"' {
		return p[1 : len(p)-1]
	}
	return p
}

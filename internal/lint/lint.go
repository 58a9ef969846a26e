// Package lint hosts the saisvet analyzers: mechanical enforcement of
// the simulator's determinism, allocation-freedom, sharding, hook,
// schema-stability, unit-safety, and error-handling invariants. See
// DESIGN.md §11 and §16 for the rationale behind each check.
//
// Every analyzer honors a line-scoped suppression directive of the form
//
//	//lint:<name> optional reason
//
// placed on the flagged line or the line directly above it, where
// <name> is the directive listed in the analyzer's Doc (wallclock,
// maporder, goroutine, globalrand, seedarith, unitmix, close, alloc,
// shardsafety, globalstate, nilhook, jsonstability). The reason is free
// text; write one — the annotation is the audit trail for why the
// invariant does not apply at that site. The waiverhygiene analyzer
// reports waivers that no longer suppress anything, so a stale reason
// cannot linger.
//
// A package may waive one directive wholesale with
//
//	//lint:package <name> reason
//
// placed in a file's header (on or above its package clause). The
// package-level form exists for packages whose design is built around
// a controlled instance of the hazard — a package of
// barrier-synchronized worker goroutines, say, where a per-line
// //lint:goroutine at every go statement would be noise, not an audit
// trail. Use it
// sparingly: a package waiver removes the analyzer's leverage for the
// whole package, so the reason must argue why the invariant holds
// globally (typically with a DESIGN.md reference).
//
// Positive contracts are opted into with //saisvet: annotations on the
// declaration they govern:
//
//	//saisvet:allocfree            — function must not allocate (allocfree)
//	//saisvet:mailbox              — struct field writable only by its
//	                                 owning type's methods (shardsafety)
//	//saisvet:nilhook              — optional hook field; every call must
//	                                 be nil-guarded (hookcontract)
//	//saisvet:jsonstable sig=HHHH  — serialized struct whose required
//	                                 field set is frozen (jsonstability)
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sais/internal/lint/analysis"
)

// Analyzers is the full saisvet suite, in the order the multichecker
// runs them. Fact-exporting analyzers come first so later analyzers of
// the same package can read their exports; waiverhygiene must run last,
// after every other analyzer has consulted the shared directive index.
var Analyzers = []*analysis.Analyzer{
	SimDeterminism,
	SeedDerive,
	UnitSafety,
	CloseCheck,
	AllocFree,
	ShardSafety,
	HookContract,
	JSONStability,
	WaiverHygiene,
}

// KnownDirectives returns the union of suppression-directive names the
// suite owns — the vocabulary waiverhygiene accepts.
func KnownDirectives() map[string]bool {
	known := make(map[string]bool)
	for _, a := range Analyzers {
		for _, d := range a.Directives {
			known[d] = true
		}
	}
	return known
}

// deterministicPkgs are the packages whose observable behavior must be
// a pure function of (Config, Seed): the discrete-event core, every
// simulated component, and the study layer whose output ordering
// feeds the paper's figures. simdeterminism applies its strictest
// rules (no goroutines, no map-ordered iteration, no calls to
// transitively tainted functions) only here, and shardsafety's
// shared-mutable-global rule has the same scope.
var deterministicPkgs = map[string]bool{
	"sais/cluster":           true,
	"sais/internal/sim":      true,
	"sais/internal/netsim":   true,
	"sais/internal/apic":     true,
	"sais/internal/cpu":      true,
	"sais/internal/cache":    true,
	"sais/internal/disk":     true,
	"sais/internal/pfs":      true,
	"sais/internal/client":   true,
	"sais/internal/irqsched": true,
	"sais/internal/toeplitz": true,
	"sais/internal/faults":   true,
	"sais/internal/workload": true,
	"sais/internal/shard":    true,
	"sais/internal/scenario": true,
	"sais/internal/flowsim":  true,
}

// isDeterministicPkg reports whether path is one of the packages whose
// behavior must be bit-reproducible. Test variants ("sais/cluster
// [sais/cluster.test]" style IDs never reach here; go vet passes the
// plain import path) share their base package's classification.
func isDeterministicPkg(path string) bool {
	return deterministicPkgs[path]
}

// isTestFile reports whether the file containing pos is a _test.go
// file. The invariants are about shipped simulator code; tests are free
// to use wall clocks, goroutines, and map iteration.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// annotationPrefix introduces a positive-contract annotation. Unlike
// //lint: waivers (which relax a check), //saisvet: annotations opt a
// declaration into a stricter contract.
const annotationPrefix = "//saisvet:"

// annotation scans a declaration's doc/comment group for a
// //saisvet:<name> annotation and returns its argument tail ("" when
// the annotation is bare) and whether it was found.
func annotation(groups []*ast.CommentGroup, name string) (args string, ok bool) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, annotationPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, annotationPrefix)
			head := rest
			if i := strings.IndexAny(head, " \t"); i >= 0 {
				head = head[:i]
			}
			if head == name {
				return strings.TrimSpace(rest[len(head):]), true
			}
		}
	}
	return "", false
}

// staticCallee resolves the callee of a call expression to its
// *types.Func: a named function or a method called through a concrete
// (non-interface) receiver. It returns nil for builtins, conversions,
// func values, and interface-method calls — the dynamic cases that have
// no single static body to consult. A call through a generic
// instantiation resolves to the generic declaration (its Origin), which
// is the object facts and annotations are recorded on.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	if fn == nil {
		fn, _ = pass.TypesInfo.Defs[id].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

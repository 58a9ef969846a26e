package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sais/internal/lint/analysis"
)

// AllocFree statically backs the 0 allocs/op rows strict-gated in
// BENCH_sim.json: a function annotated //saisvet:allocfree — the sim
// event loop, the shard round executor, the flowsim AdvanceTo
// rate-update path — must not contain heap-allocating constructs, and
// must only call functions that are themselves allocation-free
// (annotated, or conservatively proven so by this analyzer; the proof
// travels across packages as vetx facts).
//
// Flagged constructs: slice/map composite literals and &T{} (escaping
// composites), new and make, closures capturing outer variables,
// goroutine spawns, interface conversions of non-pointer values
// (explicit, or implicit at call arguments), string concatenation and
// string<->[]byte conversions, append without preallocated-capacity
// evidence (the target must be a persistent struct-field buffer, a
// reslice of one, a parameter, or a local provably backed by one), and
// calls whose callee is dynamic or not allocation-free.
//
// A block that terminates in panic is a failure path, not steady
// state, and is exempt — the 0 allocs/op contract is about the healthy
// hot loop, and a simulation that panics has already lost. Suppress a
// reviewed site (an event-callback invocation whose allocation budget
// belongs to the scheduler's client, a per-round amortized sort) with
// //lint:alloc and a reason.
var AllocFree = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "//saisvet:allocfree functions must not allocate and may only call " +
		"allocation-free functions (suppress: //lint:alloc)",
	Directives: []string{"alloc"},
	Run:        runAllocFree,
}

// allocSite is one allocating construct inside a function body.
type allocSite struct {
	pos token.Pos
	why string
}

// allocFreeStdlib are dependency packages with no facts whose exported
// functions are trusted not to allocate: pure float/integer math and
// the sync primitives (whose fast paths are allocation-free by
// design).
var allocFreeStdlib = map[string]bool{
	"cmp":         true,
	"math":        true,
	"math/bits":   true,
	"sync":        true,
	"sync/atomic": true,
}

// allocFreeStdlibFuncs are single functions trusted not to allocate in
// packages that are not trusted as a whole: the in-place generic sort.
var allocFreeStdlibFuncs = map[string]bool{
	"slices.SortFunc": true,
}

// allocFreeBuiltins are the builtin calls legal in an allocfree body.
// append is handled by its own evidence rule; make and new are alloc
// sites.
var allocFreeBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true,
	"min": true, "max": true, "clear": true, "panic": true,
	"recover": true, "real": true, "imag": true, "complex": true,
	"print": true, "println": true,
}

func runAllocFree(pass *analysis.Pass) (any, error) {
	dirs := pass.Directives()

	type fnInfo struct {
		decl      *ast.FuncDecl
		obj       *types.Func
		annotated bool
		sites     []allocSite // direct allocating constructs
		calls     []callSite  // static call edges
		dynamic   []allocSite // dynamic calls (func values, interface methods)
	}
	var fns []*fnInfo
	byObj := make(map[*types.Func]*fnInfo)

	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			_, annotated := annotation([]*ast.CommentGroup{fd.Doc}, "allocfree")
			info := &fnInfo{decl: fd, obj: obj, annotated: annotated}
			collectAllocSites(pass, info.decl, &info.sites, &info.calls, &info.dynamic)
			fns = append(fns, info)
			byObj[obj] = info
		}
	}

	// Fixpoint over the same-package call graph: a function is proven
	// allocation-free when it has no direct alloc sites, no dynamic
	// calls, and every callee is allocation-free (annotated here or in
	// a dependency, proven here, proven in a dependency's facts, or a
	// trusted stdlib package). dirty[fn] carries the first reason.
	dirty := make(map[*types.Func]string)
	for _, info := range fns {
		if len(info.sites) > 0 {
			dirty[info.obj] = info.sites[0].why
		} else if len(info.dynamic) > 0 {
			dirty[info.obj] = info.dynamic[0].why
		}
	}
	calleeClean := func(callee *types.Func) (string, bool) {
		if info, ok := byObj[callee]; ok {
			if info.annotated {
				return "", true // contract enforced at its own definition
			}
			if why, bad := dirty[callee]; bad {
				return why, false
			}
			return "", true
		}
		pkg := callee.Pkg()
		if pkg == nil {
			return "", true // universe scope (error methods etc.)
		}
		if allocFreeStdlib[pkg.Path()] || allocFreeStdlibFuncs[pkg.Path()+"."+callee.Name()] {
			return "", true
		}
		if fact, ok := pass.DepFunctionFact(callee); ok {
			if fact.AllocFree {
				return "", true
			}
			if fact.AllocWhy != "" {
				return fact.AllocWhy, false
			}
		}
		return "no allocation-freedom fact is exported for it", false
	}
	for changed := true; changed; {
		changed = false
		for _, info := range fns {
			if _, bad := dirty[info.obj]; bad {
				continue
			}
			for _, cs := range info.calls {
				if cs.callee == info.obj {
					continue
				}
				if why, clean := calleeClean(cs.callee); !clean {
					dirty[info.obj] = fmt.Sprintf("calls %s, which is not allocation-free (%s)", calleeName(cs.callee), why)
					changed = true
					break
				}
			}
		}
	}

	// Export facts: annotated functions are contractually allocation-
	// free (violations are diagnostics below, and the tree is kept at
	// zero findings); unannotated ones export their proof status.
	for _, info := range fns {
		fact := pass.Facts.Fact(info.obj.FullName())
		if info.annotated {
			fact.AllocFree = true
		} else if why, bad := dirty[info.obj]; bad {
			fact.AllocWhy = clipVia(why)
		} else {
			fact.AllocFree = true
		}
	}

	// Diagnostics, only inside annotated functions.
	for _, info := range fns {
		if !info.annotated {
			continue
		}
		report := func(pos token.Pos, why string) {
			if !dirs.Suppressed(pos, "alloc") {
				pass.Reportf(pos, "%s in //saisvet:allocfree %s: the hot-path 0 allocs/op contract forbids it (suppress a reviewed site with //lint:alloc)",
					why, info.obj.Name())
			}
		}
		for _, s := range info.sites {
			report(s.pos, s.why)
		}
		for _, s := range info.dynamic {
			report(s.pos, s.why)
		}
		for _, cs := range info.calls {
			if cs.callee == info.obj {
				continue
			}
			if why, clean := calleeClean(cs.callee); !clean {
				report(cs.pos, fmt.Sprintf("call to %s, which is not allocation-free (%s)", calleeName(cs.callee), why))
			}
		}
	}
	return nil, nil
}

// collectAllocSites walks fd's body recording allocating constructs,
// static call edges, and dynamic calls. Blocks terminating in panic
// are failure paths and skipped wholesale.
func collectAllocSites(pass *analysis.Pass, fd *ast.FuncDecl, sites *[]allocSite, calls *[]callSite, dynamic *[]allocSite) {
	add := func(pos token.Pos, format string, args ...any) {
		*sites = append(*sites, allocSite{pos: pos, why: fmt.Sprintf(format, args...)})
	}
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				if blockPanics(pass, n) {
					return false
				}
			case *ast.GoStmt:
				add(n.Pos(), "goroutine spawn (stack + closure allocation)")
				return false
			case *ast.CompositeLit:
				t := pass.TypeOf(n)
				if t == nil {
					return true
				}
				switch t.Underlying().(type) {
				case *types.Slice:
					add(n.Pos(), "slice literal (heap-allocates its backing array)")
				case *types.Map:
					add(n.Pos(), "map literal")
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						add(n.Pos(), "&composite literal (escaping heap allocation)")
						return false
					}
				}
			case *ast.FuncLit:
				if captured := capturedVars(pass, n); len(captured) > 0 {
					add(n.Pos(), "closure capturing %s by reference", strings.Join(captured, ", "))
					return false // inner body belongs to the closure's own budget
				}
				return false // non-capturing literal is a static func value
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isStringType(pass.TypeOf(n.X)) {
					add(n.Pos(), "string concatenation")
				}
			case *ast.CallExpr:
				classifyCall(pass, n, add, calls, dynamic)
			}
			return true
		})
	}
	walk(fd.Body)
}

// classifyCall sorts one call expression into conversion, builtin,
// static call, or dynamic call, recording alloc sites as appropriate.
func classifyCall(pass *analysis.Pass, call *ast.CallExpr, add func(token.Pos, string, ...any), calls *[]callSite, dynamic *[]allocSite) {
	fun := ast.Unparen(call.Fun)

	// Type conversion: T(x).
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			argT := pass.TypeOf(call.Args[0])
			switch {
			case types.IsInterface(target.Underlying()) && isConcreteNonPointer(argT):
				add(call.Pos(), "conversion of non-pointer %s to interface %s (boxes the value)", typeStr(argT), typeStr(target))
			case isStringType(target) && isByteOrRuneSlice(argT),
				isByteOrRuneSlice(target) && isStringType(argT):
				add(call.Pos(), "string/slice conversion (copies the contents)")
			}
		}
		return
	}

	// Builtin.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make")
			case "new":
				add(call.Pos(), "new")
			case "append":
				if !appendPreallocated(pass, call) {
					add(call.Pos(), "append without preallocated-capacity evidence (target is not a persistent field-backed buffer)")
				}
			default:
				if !allocFreeBuiltins[b.Name()] {
					add(call.Pos(), "builtin %s", b.Name())
				}
			}
			checkIfaceArgs(pass, call, add)
			return
		}
	}

	callee := staticCallee(pass, call)
	if callee == nil {
		*dynamic = append(*dynamic, allocSite{pos: call.Pos(),
			why: "dynamic call (func value or interface method); the callee's allocation behavior cannot be verified"})
	} else {
		*calls = append(*calls, callSite{callee: callee, pos: call.Pos()})
	}
	checkIfaceArgs(pass, call, add)
}

// checkIfaceArgs flags arguments implicitly converted to interface
// parameters — the fmt.Sprintf(...any) boxing path.
func checkIfaceArgs(pass *analysis.Pass, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			pt = params.At(i).Type()
		case params.Len() > 0:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok && sig.Variadic() {
				pt = sl.Elem()
			}
			if call.Ellipsis.IsValid() {
				pt = last // x... passes the slice through, no boxing
			}
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		if at := pass.TypeOf(arg); isConcreteNonPointer(at) {
			add(arg.Pos(), "argument boxes non-pointer %s into interface parameter", typeStr(at))
		}
	}
}

// appendPreallocated reports whether the append target shows evidence
// of an amortized, preallocated buffer: a struct-field selector (a
// persistent engine buffer), any index/slice of one, a parameter
// (caller-owned capacity), or a local whose every definition in the
// function derives from one of those (including append-to-self and
// make, whose allocation is its own finding).
func appendPreallocated(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	return fieldBacked(pass, call.Args[0], 0, make(map[*types.Var]bool))
}

func fieldBacked(pass *analysis.Pass, e ast.Expr, depth int, visited map[*types.Var]bool) bool {
	if depth > 8 {
		return false
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return true // field (or package var) backed: a persistent buffer
	case *ast.IndexExpr:
		return fieldBacked(pass, x.X, depth+1, visited)
	case *ast.SliceExpr:
		return fieldBacked(pass, x.X, depth+1, visited)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "append":
					return len(x.Args) > 0 && fieldBacked(pass, x.Args[0], depth+1, visited)
				case "make":
					return true // the make itself is the alloc finding
				}
			}
		}
		return false
	case *ast.Ident:
		obj, ok := pass.TypesInfo.ObjectOf(x).(*types.Var)
		if !ok {
			return false
		}
		if obj.IsField() {
			return true
		}
		// Parameters and receivers: the caller owns the capacity.
		if isParamOrReceiver(pass, obj) {
			return true
		}
		if visited[obj] {
			// Self-referential definition (live = append(live, ...)):
			// backing is preserved; the other definitions decide.
			return true
		}
		visited[obj] = true
		// Local: every definition must itself be field-backed.
		def, found := localDefinitions(pass, x, obj)
		if !found {
			return false
		}
		for _, rhs := range def {
			if !fieldBacked(pass, rhs, depth+1, visited) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// isParamOrReceiver reports whether obj is a parameter or receiver of
// its enclosing function signature.
func isParamOrReceiver(pass *analysis.Pass, obj *types.Var) bool {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Pos() > obj.Pos() || obj.Pos() >= fd.Body.Pos() {
				continue // params/receivers are declared before the body
			}
			return true
		}
	}
	return false
}

// localDefinitions collects every RHS expression assigned to obj in
// the function enclosing use.
func localDefinitions(pass *analysis.Pass, use *ast.Ident, obj *types.Var) (rhs []ast.Expr, found bool) {
	var encl *ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Pos() <= use.Pos() && use.End() <= fd.End() {
				encl = fd
			}
		}
	}
	if encl == nil {
		return nil, false
	}
	ast.Inspect(encl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.ObjectOf(id) != obj {
					continue
				}
				found = true
				if len(n.Rhs) == len(n.Lhs) {
					rhs = append(rhs, n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					rhs = append(rhs, n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.TypesInfo.ObjectOf(name) != obj {
					continue
				}
				found = true
				if i < len(n.Values) {
					rhs = append(rhs, n.Values[i])
				}
			}
		}
		return true
	})
	return rhs, found
}

// capturedVars lists the outer local variables a func literal captures.
// Package-level objects and the literal's own locals/params don't
// count: only enclosing-function variables force a heap closure.
func capturedVars(pass *analysis.Pass, lit *ast.FuncLit) []string {
	seen := make(map[*types.Var]bool)
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if lit.Pos() <= v.Pos() && v.Pos() < lit.End() {
			return true // the literal's own declaration
		}
		seen[v] = true
		out = append(out, v.Name())
		return true
	})
	return out
}

// blockPanics reports whether the block's last statement is a panic
// call — the failure-path exemption.
func blockPanics(pass *analysis.Pass, b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b2, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b2.Name() == "panic"
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isConcreteNonPointer reports whether t is a concrete type whose
// conversion to an interface boxes a copy on the heap: anything but
// pointers, interfaces, and untyped nil.
func isConcreteNonPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Map, *types.Chan:
		return false // single-word (or already-boxed) representations
	case *types.Basic:
		return u.Kind() != types.UntypedNil
	}
	return true
}

func typeStr(t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return t.String()
}

package sais

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedOK lists the declarations no non-test code calls, each with the
// reason it stays. A key is the package path, a dot, and the name; a
// method is named Type.Method.
var unusedOK = map[string]string{
	"sais/internal/cache.System.CheckInvariants":  "test oracle: the block-cache property and differential tests check slab and LRU consistency after every step",
	"sais/internal/cache.System.Used":             "test oracle: leak checks read per-core occupancy after an abandoned transfer; no run reports occupancy",
	"sais/internal/pfs.PageCache.CheckInvariants": "test oracle: the page-cache property tests check list, table and occupancy consistency",
	"sais/internal/units.Hertz.Duration":          "the Cycles-over-Hertz conversion the unitsafety analyzer prescribes in its finding; no model converts cycles to time today",
}

// TestEveryDeclHasACaller requires every package-level function, method,
// type, constant and variable in the module's non-test code to be
// reached from a command, a walkthrough under examples/ or perfbench —
// or to be on unusedOK with a reason. Reach starts at main and init,
// follows every identifier a reached declaration's source uses, and
// counts a method of a reached type as called when the method satisfies
// an interface of the standard library or perfbench (String,
// MarshalJSON), or an interface of the module whose method non-test
// code calls (Route, but not a method only tests call through the
// interface). Struct fields are not checked: encoding/json reads them.
// The exported declarations of a package on unreachedOK count as
// called, since their callers are tests that list already excuses. A
// declaration that only tests reach is a second path beside the one
// that runs; delete it, or point its tests at the live one.
func TestEveryDeclHasACaller(t *testing.T) {
	g := loadDeclGraph(t)
	var listed []types.Object
	for key := range unusedOK {
		switch obj := g.byKey[key]; {
		case obj == nil:
			t.Errorf("unusedOK lists %s, which the module does not declare; drop the entry", key)
		case g.decls[obj].reached:
			t.Errorf("unusedOK lists %s, which non-test code now uses; drop the entry", key)
		default:
			listed = append(listed, obj)
		}
	}
	g.reach(listed) // what an allowlisted declaration calls is called
	var unused []string
	for obj, d := range g.decls {
		if d.reached || !d.module {
			continue
		}
		unused = append(unused, fmt.Sprintf("%s: %s: no non-test code of the module or perfbench uses it; delete it, give it a caller, or list it in unusedOK with a reason",
			g.rel(obj.Pos()), declKey(obj)))
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
}

// declGraph is the module's and perfbench's non-test code, type-checked,
// with every package-level declaration marked reached or not.
type declGraph struct {
	fset     *token.FileSet
	root     string
	decls    map[types.Object]*declNode
	byKey    map[string]types.Object
	byMethod map[string][]*types.Interface // interfaces by their first method's name
	// called holds the interface methods reached code calls, and types
	// the reached named types; both outlive one reach call, so what an
	// allowlisted declaration calls counts for every type reached before.
	called map[types.Object]bool
	types  []*types.Named
}

type declNode struct {
	module  bool // declared in the module, not in perfbench
	reached bool
	uses    []types.Object
}

type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
}

func loadDeclGraph(t *testing.T) *declGraph {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []listedPackage
	seen := map[string]bool{}
	for _, dir := range []string{".", "perfbench"} {
		dec := json.NewDecoder(bytes.NewReader(goList(t, dir, "-deps", "-json", "./...")))
		for dec.More() {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				t.Fatalf("go list -json: %v", err)
			}
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	g := &declGraph{fset: token.NewFileSet(), root: root, decls: map[types.Object]*declNode{}, byKey: map[string]types.Object{}, byMethod: map[string][]*types.Interface{}, called: map[types.Object]bool{}}
	std := importer.ForCompiler(g.fset, "source", nil)
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var roots []types.Object
	var ifaces []*types.Interface // with the anonymous ones the module spells out
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(g.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		tp, err := conf.Check(p.ImportPath, g.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		module := inModule(p.ImportPath)
		library := exempt(p.ImportPath)
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				g.declare(d, info, module, func(obj types.Object) {
					switch name := obj.Name(); {
					case name == "_" || name == "init" || name == "main" && p.Name == "main":
						roots = append(roots, obj)
					case library && obj.Exported():
						roots = append(roots, obj)
					}
				})
			}
		}
	}
	for _, it := range append(ifaces, namedInterfaces(checked)...) {
		name := it.Method(0).Name()
		g.byMethod[name] = append(g.byMethod[name], it)
	}
	g.reach(roots)
	return g
}

// declare adds the objects one top-level declaration defines, each
// using every package-level object its source names.
func (g *declGraph) declare(d ast.Decl, info *types.Info, module bool, root func(types.Object)) {
	add := func(objs []types.Object, n ast.Node) {
		uses := usesIn(n, info)
		for _, obj := range objs {
			g.decls[obj] = &declNode{module: module, uses: uses}
			g.byKey[declKey(obj)] = obj
			root(obj)
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		add([]types.Object{info.Defs[d.Name]}, d)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				add([]types.Object{info.Defs[s.Name]}, s)
			case *ast.ValueSpec:
				var objs []types.Object
				for _, n := range s.Names {
					objs = append(objs, info.Defs[n])
				}
				add(objs, s)
			}
		}
	}
}

// usesIn lists the objects the identifiers under n refer to (an
// embedded field's identifier refers to its type), generic instances
// mapped back to their origin.
func usesIn(n ast.Node, info *types.Info) []types.Object {
	var uses []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
			uses = append(uses, origin(info.Uses[id]))
		}
		return true
	})
	return uses
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reach marks every declaration the roots reach, calling each method of
// a reached type that an interface it implements requires — for an
// interface of the module, only once reached code calls that method.
func (g *declGraph) reach(roots []types.Object) {
	work := roots
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if isInterfaceMethod(obj) {
				g.called[obj] = true
			}
			d := g.decls[obj]
			if d == nil || d.reached {
				continue
			}
			d.reached = true
			work = append(work, d.uses...)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil && !types.IsInterface(named) {
					g.types = append(g.types, named)
				}
			}
		}
		// Every reached type is scanned again: a call reached since the
		// last scan can make an earlier type's method called.
		for _, named := range g.types {
			for _, typ := range []types.Type{named, types.NewPointer(named)} {
				ms := types.NewMethodSet(typ)
				for i := 0; i < ms.Len(); i++ {
					for _, it := range g.byMethod[ms.At(i).Obj().Name()] {
						if !types.Implements(typ, it) {
							continue
						}
						for j := 0; j < it.NumMethods(); j++ {
							m := it.Method(j)
							if m.Pkg() != nil && inModule(m.Pkg().Path()) && !g.called[origin(m)] {
								continue
							}
							obj, _, _ := types.LookupFieldOrMethod(typ, false, m.Pkg(), m.Name())
							if d := g.decls[origin(obj)]; d != nil && !d.reached {
								work = append(work, origin(obj))
							}
						}
					}
				}
			}
		}
	}
}

// isInterfaceMethod reports whether obj is a method an interface
// declares.
func isInterfaceMethod(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// inModule reports whether the package at path is the module's,
// perfbench excluded.
func inModule(path string) bool {
	return path == "sais" || strings.HasPrefix(path, "sais/") && !strings.HasPrefix(path, "sais/perfbench")
}

// namedInterfaces returns the named interfaces with methods declared in
// the checked packages and every package they import, error among them.
func namedInterfaces(checked map[string]*types.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	return ifaces
}

// declKey names obj as unusedOK does: path.Name or path.Type.Method.
func declKey(obj types.Object) string {
	name := obj.Name()
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			name = typ.(*types.Named).Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}

func (g *declGraph) rel(pos token.Pos) string {
	p := g.fset.Position(pos)
	if r, err := filepath.Rel(g.root, p.Filename); err == nil {
		p.Filename = r
	}
	return p.String()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

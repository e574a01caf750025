package udao

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath is the import path of the module at the repository root;
// servbench/ is its own module, repro/servbench, beside it.
const modulePath = "repro"

// testOnlyExportsAllowed lists the exported internal/ declarations, methods
// and struct fields that no non-test program file uses, each with the reason
// it stays. Test tools check behaviour the programs keep; Unwrap is called
// by the standard library through an interface the module never names.
var testOnlyExportsAllowed = map[string]string{
	"serving.ShedError.Unwrap":      "errors.Is and errors.As call it",
	"objective.Rect.Contains":       "the PF-S completeness property test checks coverage with it",
	"space.Composite.Gather":        "the pipeline test and FuzzCompositeRoundTrip check stage round trips with it",
	"solver/mogd.Solver.Minimize":   "the §IV-B.1 single-objective base case is tested through it",
	"core.Run.Exhausted":            "the run tests check with it that the uncertain space is fully resolved",
	"model/gp.GP.Lengthscales":      "the ARD test reads the fitted lengthscales with it",
	"model/gp.GP.LogML":             "the MLE test checks that the fit raised the log marginal likelihood",
	"model/analytic.PaperExample":   "Fig. 3(e)'s models, a fixture for the tests of five packages",
	"model/analytic.PaperExample2D": "Fig. 3(f)'s models, a fixture for the tests of seven packages",
	"problem.NewComposite":          "the conformance suite and the composite tests build pipeline problems with it; udao.NewPipelineOptimizer routes its stages through RoutedObjective instead",
	"trace.Load":                    "it reads back the trace file that cmd/tracegen writes",
	"core.Snapshot.Evals":           "udao.Options.OnProgress hands Snapshot to callers",
	"core.Snapshot.UncertainFrac":   "udao.Options.OnProgress hands Snapshot to callers",
}

// TestNoTestOnlyExports fails when no non-test file of the module or of
// servbench/ uses an exported internal/ declaration, method or struct field,
// so only tests could reach it. Such code is either dead or a test tool; a
// tool needs an entry above with its reason.
//
// Every non-test package is type-checked from source, so a use is resolved
// to the object it denotes, an instance of a generic type to its origin. A
// method is also live when its receiver type, or a pointer to it, implements
// an interface type that non-test code uses and that declares the method:
// container/heap reaches a queue's Less that way. A field is live only when
// non-test code reads it; the left-hand side of an assignment, an ++ or --
// operand and a composite-literal key write it, and a read in the defaults
// or validate method of the field's own struct type only fills in or checks
// the field's value. Fields with a struct tag are wire formats and embedded
// fields are promoted, so neither is checked.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	imp := &sourceImporter{fset: fset, std: importer.Default(), pkgs: map[string]*sourcePackage{}}
	if err := imp.loadTree("."); err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	var decls []exportedObject
	for _, p := range imp.pkgs {
		receivers, notReads := map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
		for _, f := range p.files {
			markReceivers(f, receivers)
			markWrites(f, notReads)
			markSelfChecks(f, p.info, notReads)
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); receivers[id] || ok && v.IsField() && notReads[id] {
				continue
			}
			used[origin(obj)] = true
			addInterfaces(obj.Type(), ifaces, map[types.Type]bool{})
		}
		for _, tv := range p.info.Types {
			addInterfaces(tv.Type, ifaces, map[types.Type]bool{})
		}
		if strings.HasPrefix(p.pkg.Path(), modulePath+"/internal/") {
			decls = append(decls, exportedObjects(p.pkg)...)
		}
	}
	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if used[d.obj] || implementsUsed(d.obj, ifaces) {
			continue
		}
		if _, ok := testOnlyExportsAllowed[d.key]; ok {
			allowed[d.key] = true
		} else {
			unused = append(unused, d.key)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		t.Errorf("exported declarations, methods or fields no program uses (delete them, or allow one with its reason):\n\t%s",
			strings.Join(unused, "\n\t"))
	}
	for key, reason := range testOnlyExportsAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no test-only declaration", key)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
}

// sourcePackage is one type-checked package: its non-test files and what
// the checker resolved in them.
type sourcePackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// sourceImporter type-checks the module's packages from their non-test
// source, each once, and imports the standard library from export data.
type sourceImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*sourcePackage
}

func (s *sourceImporter) Import(p string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(p, modulePath)
	if !ok || rel != "" && rel[0] != '/' {
		return s.std.Import(p)
	}
	if sp, ok := s.pkgs[p]; ok {
		return sp.pkg, nil
	}
	return s.check(p, filepath.FromSlash("."+rel))
}

// check parses and type-checks the non-test files of dir as package p.
func (s *sourceImporter) check(p, dir string) (*types.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: s}).Check(p, s.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	s.pkgs[p] = &sourcePackage{pkg: pkg, files: files, info: info}
	return pkg, nil
}

// loadTree type-checks every package under root that has non-test Go
// files, skipping testdata and hidden or underscored directories.
func (s *sourceImporter) loadTree(root string) error {
	return filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		goFiles, _ := filepath.Glob(filepath.Join(p, "*.go"))
		tests, _ := filepath.Glob(filepath.Join(p, "*_test.go"))
		if len(goFiles) == len(tests) {
			return nil
		}
		_, err = s.Import(path.Join(modulePath, filepath.ToSlash(p)))
		return err
	})
}

// markWrites marks the identifiers that f writes without reading: an
// assignment's left-hand side, an ++ or -- operand and a composite literal's
// keys. Only a field's use is discounted by it: a map literal's constant key
// is read.
func markWrites(f *ast.File, writes map[*ast.Ident]bool) {
	mark := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			writes[e.Sel] = true
		case *ast.Ident:
			writes[e] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				}
			}
		}
		return true
	})
}

// markSelfChecks marks the field uses in f's defaults and validate methods
// that name a field of the method's own struct type: filling in a field's
// default or rejecting its value does not read it for the program.
func markSelfChecks(f *ast.File, info *types.Info, notReads map[*ast.Ident]bool) {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Body == nil || fn.Name.Name != "defaults" && fn.Name.Name != "validate" {
			continue
		}
		t := info.Types[fn.Recv.List[0].Type].Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
					for i := 0; i < st.NumFields(); i++ {
						if st.Field(i) == origin(v) {
							notReads[id] = true
						}
					}
				}
			}
			return true
		})
	}
}

// markReceivers marks the identifiers in f's method receivers, which name
// the type a method belongs to without using it.
func markReceivers(f *ast.File, receivers map[*ast.Ident]bool) {
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
			ast.Inspect(fn.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					receivers[id] = true
				}
				return true
			})
		}
	}
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// addInterfaces adds every interface type that t is or is built from.
func addInterfaces(t types.Type, out map[*types.Interface]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if iface, ok := t.Underlying().(*types.Interface); ok {
			out[iface] = true
		}
	case *types.Interface:
		out[t] = true
	case *types.Pointer:
		addInterfaces(t.Elem(), out, seen)
	case *types.Slice:
		addInterfaces(t.Elem(), out, seen)
	case *types.Array:
		addInterfaces(t.Elem(), out, seen)
	case *types.Chan:
		addInterfaces(t.Elem(), out, seen)
	case *types.Map:
		addInterfaces(t.Key(), out, seen)
		addInterfaces(t.Elem(), out, seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				addInterfaces(tup.At(i).Type(), out, seen)
			}
		}
	}
}

// exportedObject is one exported object and the key that the allowlist and
// the failure name it by: its package path after internal/, then "Name", or
// "Type.Name" for a method or field.
type exportedObject struct {
	obj types.Object
	key string
}

// exportedObjects lists the exported package-level objects of pkg, the
// exported methods of its named types, and the exported fields of its
// struct types that carry no tag and are not embedded.
func exportedObjects(pkg *types.Package) []exportedObject {
	var out []exportedObject
	prefix := strings.TrimPrefix(pkg.Path(), modulePath+"/internal/") + "."
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, exportedObject{obj, prefix + name})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out = append(out, exportedObject{m, prefix + name + "." + m.Name()})
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" {
					out = append(out, exportedObject{f, prefix + name + "." + f.Name()})
				}
			}
		}
	}
	return out
}

// implementsUsed reports whether obj is a method that an interface type in
// ifaces declares and its receiver type, or a pointer to it, implements.
func implementsUsed(obj types.Object, ifaces map[*types.Interface]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() &&
				(types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)) {
				return true
			}
		}
	}
	return false
}

package udao

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of the module at the repository root;
// servbench/ is its own module, repro/servbench, beside it.
const modulePath = "repro"

// testOnlyExportsAllowed lists the exported internal/ declarations that no
// non-test program file refers to, each with the reason it stays. A method
// that the standard library calls through an interface is never named by the
// program that relies on it; the other entries are tools that tests use to
// check behaviour the programs keep.
var testOnlyExportsAllowed = map[string]string{
	"core.rectQueue.Less":              "container/heap calls it (heap.Interface)",
	"serving.ShedError.Unwrap":         "errors.Is and errors.As call it",
	"objective.Rect.Contains":          "the PF-S completeness property test checks coverage with it",
	"space.Composite.Gather":           "the pipeline test and FuzzCompositeRoundTrip check stage round trips with it",
	"solver/mogd.Solver.Minimize":      "the §IV-B.1 single-objective base case is tested through it",
	"core.Run.Exhausted":               "the run tests check with it that the uncertain space is fully resolved",
	"model/gp.GP.Lengthscales":         "the ARD test reads the fitted lengthscales with it",
	"solver/mogd.Solver.CacheNearHits": "the near warm-start tests count warm-started probes with it",
	"model/analytic.PaperExample":      "Fig. 3(e)'s models, a fixture for the tests of five packages",
	"model/analytic.PaperExample2D":    "Fig. 3(f)'s models, a fixture for the tests of seven packages",
	"problem.NewComposite":             "the conformance suite and the composite tests build pipeline problems with it; udao.NewPipelineOptimizer routes its stages through RoutedObjective instead",
	"trace.Load":                       "it reads back the trace file that cmd/tracegen writes",
}

// TestNoTestOnlyExports fails when an exported declaration under internal/
// is referred to by no non-test file of the module or of servbench/, so only
// tests could reach it. Such code is either dead or a test tool; a tool needs
// an entry above with its reason.
//
// Top-level names are resolved by package, without type information: a
// reference is pkg.Name through an import of the declaring package, or a
// bare Name in a non-test file of that package. A declaration's own name and
// a method's receiver are not references, so a Fit that only tests call is
// found beside a live gp.Fit. A bare identifier counts whatever it names: a
// local variable or struct-literal key spelled like a top-level name of its
// own package still refers to it here.
//
// Methods are matched by name alone, because a call through an interface
// never names the concrete method: one is live when its name occurs more
// often than exported internal/ declarations bear it. So a method whose name
// a live method of another type shares (a Matrix.Clone beside Point.Clone)
// still counts as referenced.
func TestNoTestOnlyExports(t *testing.T) {
	files, err := parseSources(".")
	if err != nil {
		t.Fatal(err)
	}
	idents := map[string]int{}
	refs := map[string]bool{}
	var decls []exportDecl
	declared := map[string]int{}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name]++
			}
			return true
		})
		addReferences(f, refs)
		if rel, ok := strings.CutPrefix(f.pkg, modulePath+"/internal/"); ok {
			for _, d := range exportedDecls(f.ast) {
				declared[d.name]++
				d.key = rel + "." + d.key
				d.ref = f.pkg + "." + d.name
				decls = append(decls, d)
			}
		}
	}
	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if d.method && idents[d.name] > declared[d.name] || !d.method && refs[d.ref] {
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
		t.Errorf("exported declarations no program refers to (delete them, or allow one with its reason):\n\t%s",
			strings.Join(unused, "\n\t"))
	}
	for key := range testOnlyExportsAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no test-only declaration", key)
		}
	}
}

// sourceFile is one parsed non-test Go file and its package's import path.
type sourceFile struct {
	pkg string
	ast *ast.File
}

// parseSources parses every non-test Go file under root, skipping testdata
// and hidden or underscored directories.
func parseSources(root string) ([]sourceFile, error) {
	var files []sourceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{pkg: path.Join(modulePath, filepath.ToSlash(filepath.Dir(p))), ast: f})
		return nil
	})
	return files, err
}

// addReferences adds to refs every top-level name that f refers to, as
// "importpath.Name": a selector through one of f's imports, or a bare
// identifier, which names something of f's own package. Declared names,
// method receivers and the field or method of a selector on a value are not
// references. An import without a local name is known by the last element
// of its path, which every package of the module is named after.
func addReferences(f sourceFile, refs map[string]bool) {
	imports := map[string]string{} // local name → import path
	for _, imp := range f.ast.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.FuncDecl:
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.TypeSpec:
			if n.TypeParams != nil {
				ast.Inspect(n.TypeParams, visit)
			}
			ast.Inspect(n.Type, visit)
			return false
		case *ast.ValueSpec:
			if n.Type != nil {
				ast.Inspect(n.Type, visit)
			}
			for _, v := range n.Values {
				ast.Inspect(v, visit)
			}
			return false
		case *ast.Field:
			ast.Inspect(n.Type, visit)
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					refs[p+"."+n.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			refs[f.pkg+"."+n.Name] = true
		}
		return true
	}
	for _, d := range f.ast.Decls {
		ast.Inspect(d, visit)
	}
}

// exportDecl is one exported declaration: its bare name; key, "Name" or
// "Recv.Name" for a method, which the allowlist and the failure name after
// the package; and for a top-level name, ref, its "importpath.Name".
type exportDecl struct {
	name, key, ref string
	method         bool
}

// exportedDecls lists the exported top-level types, functions, constants,
// variables and methods that f declares.
func exportedDecls(f *ast.File) []exportDecl {
	var out []exportDecl
	add := func(id *ast.Ident, recv string) {
		if !id.IsExported() {
			return
		}
		d := exportDecl{name: id.Name, key: id.Name}
		if recv != "" {
			d.key, d.method = recv+"."+id.Name, true
		}
		out = append(out, d)
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			recv := ""
			if decl.Recv != nil && len(decl.Recv.List) == 1 {
				recv = recvTypeName(decl.Recv.List[0].Type)
			}
			add(decl.Name, recv)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "")
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, "")
					}
				}
			}
		}
	}
	return out
}

// recvTypeName returns the type name of a method receiver, without pointer
// or type parameter.
func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if inst, ok := e.(*ast.IndexExpr); ok {
		e = inst.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

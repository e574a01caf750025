package udao

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportsAllowed lists the exported internal/ declarations that no
// non-test program file names, each with the reason it stays. A method that
// the standard library calls through an interface is never named by the
// program that relies on it; the other entries are tools that tests use to
// check behaviour the programs keep.
var testOnlyExportsAllowed = map[string]string{
	"core.rectQueue.Less":              "container/heap calls it (heap.Interface)",
	"model/dnn.Net.MarshalJSON":        "encoding/json calls it (json.Marshaler)",
	"model/dnn.Net.UnmarshalJSON":      "encoding/json calls it (json.Unmarshaler)",
	"serving.ShedError.Unwrap":         "errors.Is and errors.As call it",
	"objective.Rect.Contains":          "the PF-S completeness property test checks coverage with it",
	"space.Composite.Gather":           "the pipeline test and FuzzCompositeRoundTrip check stage round trips with it",
	"solver/mogd.Solver.Minimize":      "the §IV-B.1 single-objective base case is tested through it",
	"core.Run.Exhausted":               "the run tests check with it that the uncertain space is fully resolved",
	"model/gp.GP.Lengthscales":         "the ARD test reads the fitted lengthscales with it",
	"solver/mogd.Solver.CacheNearHits": "the near warm-start tests count warm-started probes with it",
	"model/analytic.PaperExample":      "Fig. 3(e)'s models, a fixture for the tests of five packages",
	"model/analytic.PaperExample2D":    "Fig. 3(f)'s models, a fixture for the tests of seven packages",
}

// TestNoTestOnlyExports fails when an exported top-level declaration or
// method under internal/ is named only in its own declaration: no non-test
// file of the module or of servbench/ refers to it, so only tests could reach
// it. Such code is either dead or a test tool; a tool needs an entry above
// with its reason.
//
// The check matches identifier tokens by name, without type information, so
// it misses dead code whose name something else shares: a method named like
// a type parameter (a Matrix.T beside every [T any]) or like a live method
// of another type (a Matrix.Clone beside Point.Clone) counts as referenced.
func TestNoTestOnlyExports(t *testing.T) {
	uses := map[string]int{}
	var decls []exportDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := countIdents(path, src, uses); err != nil {
			return err
		}
		if rel, ok := strings.CutPrefix(filepath.ToSlash(path), "internal/"); ok {
			ds, err := exportedDecls(path, src)
			if err != nil {
				return err
			}
			pkg := filepath.ToSlash(filepath.Dir(rel))
			for _, d := range ds {
				d.key = pkg + "." + d.key
				decls = append(decls, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]int{}
	for _, d := range decls {
		declared[d.name]++
	}
	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] > declared[d.name] {
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
		t.Errorf("exported declarations named only in their own declaration (delete them, or allow one with its reason):\n\t%s",
			strings.Join(unused, "\n\t"))
	}
	for key := range testOnlyExportsAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no test-only declaration", key)
		}
	}
}

// exportDecl is one exported declaration: its bare name, which the token
// count matches, and key, "Name" or "Recv.Name" for a method.
type exportDecl struct{ name, key string }

// countIdents adds one to uses for every identifier token in src.
func countIdents(path string, src []byte, uses map[string]int) error {
	var s scanner.Scanner
	s.Init(token.NewFileSet().AddFile(path, -1, len(src)), src, nil, 0)
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.IDENT {
			uses[lit]++
		}
	}
	if s.ErrorCount > 0 {
		return fmt.Errorf("%s: %d scan errors", path, s.ErrorCount)
	}
	return nil
}

// exportedDecls lists the exported top-level types, functions, constants,
// variables and methods that src declares.
func exportedDecls(path string, src []byte) ([]exportDecl, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var out []exportDecl
	add := func(id *ast.Ident, recv string) {
		if !id.IsExported() {
			return
		}
		key := id.Name
		if recv != "" {
			key = recv + "." + key
		}
		out = append(out, exportDecl{name: id.Name, key: key})
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
	return out, nil
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

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"path/filepath"
)

// restatedSource lists the program code traced.go restates: functions of
// internal/service that the traced host composes by hand, and udao-server's
// flags and boot, which startTraced reproduces. A nil funcs list stands for
// the whole file.
var restatedSource = []struct {
	file  string
	funcs []string
}{
	{"internal/service/service.go", []string{
		"serving", "resolveFor", "pipelineOptimizer", "requestKey", "Optimize",
		"phaseBreakdown", "slo", "observeSolve", "record", "exportQuality", "Handler",
	}},
	{"cmd/udao-server/main.go", nil},
}

// restatedHash is RestatedHash of the code traced.go was written against.
// When that code changes, TestRestatedSourceUnchanged fails and traced runs
// report restated_source_changed: bring traced.go in line with the change,
// then set this to the new hash.
const restatedHash = "9002aca4db9b40b24e910f6e"

// RestatedHash hashes the restated code under root. The code is printed from
// its syntax tree without comments and blank lines, so only a change to the
// code itself alters the hash.
func RestatedHash(root string) (string, error) {
	h := sha256.New()
	for _, src := range restatedSource {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join(root, src.file), nil, 0)
		if err != nil {
			return "", err
		}
		if src.funcs == nil {
			if err := hashNode(h, fset, src.file, f); err != nil {
				return "", err
			}
			continue
		}
		decls := map[string]*ast.FuncDecl{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[fd.Name.Name] = fd
			}
		}
		for _, name := range src.funcs {
			fd, ok := decls[name]
			if !ok {
				return "", fmt.Errorf("%s: no function %s", src.file, name)
			}
			if err := hashNode(h, fset, src.file+":"+name, fd); err != nil {
				return "", err
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// hashNode writes a label and the node's printed code, blank lines dropped,
// to w.
func hashNode(w interface{ Write([]byte) (int, error) }, fset *token.FileSet, label string, node any) error {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, node); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	fmt.Fprintf(w, "%s\n", label)
	for _, line := range bytes.Split(b.Bytes(), []byte("\n")) {
		if line = bytes.TrimSpace(line); len(line) > 0 {
			w.Write(append(line, '\n'))
		}
	}
	return nil
}

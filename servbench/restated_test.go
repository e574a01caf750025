package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRestatedSourceUnchanged(t *testing.T) {
	got, err := RestatedHash("..")
	if err != nil {
		t.Fatal(err)
	}
	if got != restatedHash {
		t.Fatalf("code that traced.go restates changed (hash %s, traced.go matches %s): mirror the change in traced.go, then set restatedHash to %s", got, restatedHash, got)
	}
}

// copyRestated copies the restated files from the repository into a fresh
// root and returns it.
func copyRestated(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	for _, src := range restatedSource {
		b, err := os.ReadFile(filepath.Join("..", src.file))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(root, src.file)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func edit(t *testing.T, path, old, new string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), old) {
		t.Fatalf("%s has no %q", path, old)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(b), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRestatedHashSeesCodeNotComments(t *testing.T) {
	root := copyRestated(t)
	base, err := RestatedHash(root)
	if err != nil {
		t.Fatal(err)
	}
	svc := filepath.Join(root, "internal/service/service.go")

	edit(t, svc, "func requestKey(req OptimizeRequest) string {", "func requestKey(req OptimizeRequest) string {\n\t// A comment changes nothing.\n")
	if h, err := RestatedHash(root); err != nil || h != base {
		t.Fatalf("comment changed the hash: %s vs %s (%v)", h, base, err)
	}

	edit(t, svc, "func requestKey(req OptimizeRequest) string {", "func requestKey(req OptimizeRequest) string {\n\t_ = len(req.Workload)")
	if h, err := RestatedHash(root); err != nil || h == base {
		t.Fatalf("code change left the hash at %s (%v)", h, err)
	}

	root = copyRestated(t)
	edit(t, filepath.Join(root, "cmd/udao-server/main.go"), "func main() {", "func main() {\n\t_ = 0")
	if h, err := RestatedHash(root); err != nil || h == base {
		t.Fatalf("boot change left the hash at %s (%v)", h, err)
	}
}

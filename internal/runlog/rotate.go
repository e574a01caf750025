package runlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DefaultMaxBytes is the rotation threshold used when a RotatingFile is
// opened with maxBytes <= 0: large enough that rotation is rare, small
// enough that a single file stays greppable.
const DefaultMaxBytes = 64 << 20 // 64 MiB

// DefaultKeep is the number of rotated files kept when keep <= 0.
const DefaultKeep = 3

// RotatingFile is a size-bounded append-only file writer. When a write would
// push the file past maxBytes, the file is rotated first: path.N-1 → path.N
// (dropping the oldest), …, path.1 → path.2, path → path.1, and a fresh file
// is opened at path. Rotation happens only at Write boundaries, so callers
// that write whole records per call (one JSON line per Write) never see a
// record split across files. Every Journal (run registry, calibration
// ledger, alert log) and the telemetry trace sink write through this type,
// which is why long-running servers cannot grow any of them without bound.
type RotatingFile struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	keep     int
	f        *os.File
	size     int64
}

// OpenRotating opens (creating if needed) the append-only file at path with
// the given rotation threshold and number of rotated files to keep
// (<= 0 selects DefaultMaxBytes / DefaultKeep).
func OpenRotating(path string, maxBytes int64, keep int) (*RotatingFile, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &RotatingFile{path: path, maxBytes: maxBytes, keep: keep, f: f, size: st.Size()}, nil
}

// RotatedPath returns the name of the i-th rotated file (i >= 1), oldest
// last: path.1 is the most recently rotated file.
func RotatedPath(path string, i int) string { return fmt.Sprintf("%s.%d", path, i) }

// RotationChain lists the files of the rotated log at path in write order:
// every rotated sibling RotatedPath(path, i) that exists, highest i (oldest)
// first, then path itself, whether or not it exists.
func RotationChain(path string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	prefix := filepath.Base(path) + "."
	var rotated []int
	for _, e := range entries {
		suffix, ok := strings.CutPrefix(e.Name(), prefix)
		if i, err := strconv.Atoi(suffix); ok && err == nil && i >= 1 && strconv.Itoa(i) == suffix {
			rotated = append(rotated, i)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(rotated)))
	chain := make([]string, 0, len(rotated)+1)
	for _, i := range rotated {
		chain = append(chain, RotatedPath(path, i))
	}
	return append(chain, path), nil
}

// Write appends p, rotating first if the write would exceed the size bound.
// A single write larger than the bound goes into a fresh file whole.
func (w *RotatingFile) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, os.ErrClosed
	}
	if w.size > 0 && w.size+int64(len(p)) > w.maxBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

// rotateLocked shifts the rotation chain and reopens a fresh file at path.
func (w *RotatingFile) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	// Shift path.keep-1 → path.keep, …, path.1 → path.2; the previous
	// path.keep (oldest) is overwritten by the rename and thereby dropped.
	for i := w.keep - 1; i >= 1; i-- {
		from := RotatedPath(w.path, i)
		if _, err := os.Stat(from); err == nil {
			if err := os.Rename(from, RotatedPath(w.path, i+1)); err != nil {
				return err
			}
		}
	}
	if err := os.Rename(w.path, RotatedPath(w.path, 1)); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f, w.size = f, 0
	return nil
}

// Sync flushes the active file to stable storage.
func (w *RotatingFile) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return os.ErrClosed
	}
	return w.f.Sync()
}

// Close closes the active file. Further writes fail with os.ErrClosed.
func (w *RotatingFile) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

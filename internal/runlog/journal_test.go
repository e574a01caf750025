package runlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// note is the record type the journal tests write.
type note struct {
	ID string  `json:"id"`
	N  int     `json:"n,omitempty"`
	F  float64 `json:"f,omitempty"`
}

func noteID(n *note) *string { return &n.ID }

// openNotes opens a "t"-prefixed journal of notes at path and returns it
// with the notes it replayed.
func openNotes(t testing.TB, path string, opts Options) (*Journal[note], []note) {
	t.Helper()
	var replayed []note
	j, err := OpenJournal(path, "t", opts, noteID, func(n note) { replayed = append(replayed, n) })
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j, replayed
}

func appendNote(t *testing.T, j *Journal[note], n note) note {
	t.Helper()
	if err := j.Append(&n, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	return n
}

// ids lists the notes' IDs (nil for none).
func ids(ns []note) []string {
	if len(ns) == 0 {
		return nil
	}
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

// TestJournalReplay opens journals over hand-written files and checks what
// they replay, which ID they issue next, and what reaches the disk.
func TestJournalReplay(t *testing.T) {
	cases := []struct {
		name    string
		content string
		replay  []string
		next    string
	}{
		{"missing file", "", nil, "t-000001"},
		{"truncated tail", "{\"id\":\"t-000001\"}\n{\"id\":\"t-000002\"}\n{\"id\":\"t-0000", []string{"t-000001", "t-000002"}, "t-000003"},
		{"unterminated complete record", "{\"id\":\"t-000001\"}\n{\"id\":\"t-000002\"}", []string{"t-000001"}, "t-000002"},
		{"corrupt interior line", "{\"id\":\"t-000001\"}\nGARBAGE\n{\"id\":\"t-000003\"}\n", []string{"t-000001", "t-000003"}, "t-000004"},
		{"line without ID", "{\"n\":4}\n{\"id\":\"\",\"n\":5}\n{\"id\":\"t-000002\"}\n", []string{"t-000002"}, "t-000003"},
		{"duplicate ID", "{\"id\":\"t-000001\",\"n\":1}\n{\"id\":\"t-000001\",\"n\":2}\n{\"id\":\"t-000002\"}\n", []string{"t-000001", "t-000002"}, "t-000003"},
		{"sequence past the largest ID", "{\"id\":\"t-000007\"}\n{\"id\":\"t-000003\"}\n{\"id\":\"x-000099\"}\n{\"id\":\"t-12abc\"}\n", []string{"t-000007", "t-000003", "x-000099", "t-12abc"}, "t-000008"},
		{"CRLF line ends", "{\"id\":\"t-000001\"}\r\n{\"id\":\"t-000002\"}\r\n", []string{"t-000001", "t-000002"}, "t-000003"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "notes.jsonl")
			if tc.content != "" {
				if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			j, replayed := openNotes(t, path, Options{})
			if got := ids(replayed); !reflect.DeepEqual(got, tc.replay) {
				t.Fatalf("replayed %v, want %v", got, tc.replay)
			}
			added := appendNote(t, j, note{N: 42})
			if added.ID != tc.next {
				t.Fatalf("next ID = %q, want %q", added.ID, tc.next)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			// The file keeps every complete line and gains the new record on
			// a line of its own.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			kept := tc.content[:strings.LastIndexByte(tc.content, '\n')+1]
			if want := kept + fmt.Sprintf("{\"id\":%q,\"n\":42}\n", tc.next); string(data) != want {
				t.Fatalf("file = %q, want %q", data, want)
			}
			loaded, err := LoadJournal(path, noteID)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ids(loaded), append(append([]string{}, tc.replay...), tc.next); !reflect.DeepEqual(got, want) {
				t.Fatalf("Load = %v, want %v", got, want)
			}
		})
	}
}

// TestJournalOversizeLine: no line is too long to skip — only I/O errors
// fail an open.
func TestJournalOversizeLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range [][]byte{
		[]byte("{\"id\":\"t-000001\"}\n"),
		bytes.Repeat([]byte("x"), 17<<20), // longer than a 16 MiB bufio.Scanner buffer
		[]byte("\n{\"id\":\"t-000002\"}\n"),
	} {
		if _, err := f.Write(part); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	j, replayed := openNotes(t, path, Options{})
	defer j.Close()
	if got := ids(replayed); !reflect.DeepEqual(got, []string{"t-000001", "t-000002"}) {
		t.Fatalf("replayed %v", got)
	}
}

func TestJournalRotationAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.jsonl")
	opts := Options{MaxBytes: 64, Keep: 2}
	j, _ := openNotes(t, path, opts)
	const n = 20
	for i := 0; i < n; i++ {
		appendNote(t, j, note{N: i})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	chain, err := RotationChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{RotatedPath(path, 2), RotatedPath(path, 1), path}; !reflect.DeepEqual(chain, want) {
		t.Fatalf("rotation chain %v, want %v", chain, want)
	}
	// Reopen: what Keep retained comes back oldest first, ending with the
	// newest record, and numbering continues past it.
	j2, replayed := openNotes(t, path, opts)
	defer j2.Close()
	if len(replayed) == 0 || len(replayed) >= n {
		t.Fatalf("replayed %d of %d notes", len(replayed), n)
	}
	for i := 1; i < len(replayed); i++ {
		if replayed[i].N != replayed[i-1].N+1 {
			t.Fatalf("replay out of order: %v", replayed)
		}
	}
	if last := replayed[len(replayed)-1]; last.ID != fmt.Sprintf("t-%06d", n) {
		t.Fatalf("newest replayed note = %+v", last)
	}
	if got := appendNote(t, j2, note{}); got.ID != fmt.Sprintf("t-%06d", n+1) {
		t.Fatalf("ID after reopen = %q", got.ID)
	}
}

// TestJournalWriteErrorSurfaces: a directory squatting on path.1 makes
// rotation fail; the failure reaches Err, Sync and Close.
func TestJournalWriteErrorSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.jsonl")
	if err := os.MkdirAll(RotatedPath(path, 1), 0o755); err != nil {
		t.Fatal(err)
	}
	j, _ := openNotes(t, path, Options{MaxBytes: 16, Keep: 1})
	appendNote(t, j, note{N: 1})
	appendNote(t, j, note{N: 2}) // rotates onto the directory
	if err := j.Sync(); err == nil {
		t.Fatal("Sync reported no error after a failed rotation")
	}
	if j.Err() == nil {
		t.Fatal("Err reported no error after a failed rotation")
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close reported no error after a failed rotation")
	}
}

// TestJournalErrStaysSet: an encoding failure stays in Err after later
// records are written fine.
func TestJournalErrStaysSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.jsonl")
	j, _ := openNotes(t, path, Options{})
	appendNote(t, j, note{F: math.NaN()}) // JSON cannot carry NaN
	good := appendNote(t, j, note{N: 7})
	if err := j.Sync(); err == nil {
		t.Fatal("Sync reported no error after an encoding failure")
	}
	if err := j.Err(); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("Err = %v, want the encoding failure", err)
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close dropped the encoding failure")
	}
	loaded, err := LoadJournal(path, noteID)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0] != good {
		t.Fatalf("Load = %+v, want only %+v", loaded, good)
	}
}

func TestJournalAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.jsonl")
	j, _ := openNotes(t, path, Options{})
	appendNote(t, j, note{N: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := note{N: 2}
	applied := false
	if err := j.Append(&rec, func(*note) { applied = true }); !errors.Is(err, errClosed) {
		t.Fatalf("Append after Close = %v, want errClosed", err)
	}
	if applied || rec.ID != "" {
		t.Fatalf("rejected append was applied (%v) or numbered (%q)", applied, rec.ID)
	}
	if !errors.Is(j.Sync(), errClosed) || !errors.Is(j.Err(), errClosed) {
		t.Fatalf("Sync/Err after Close = %v / %v", j.Sync(), j.Err())
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("file changed by a rejected append: %q -> %q", before, after)
	}
	// The rejected append consumed no ID.
	j2, _ := openNotes(t, path, Options{})
	defer j2.Close()
	if got := appendNote(t, j2, note{}); got.ID != "t-000002" {
		t.Fatalf("ID after reopen = %q, want t-000002", got.ID)
	}
}

// TestJournalConcurrentUse races appends, syncs and Err against a Close:
// every append that returned nil reaches the disk under a unique ID, and
// every later one is rejected.
func TestJournalConcurrentUse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.jsonl")
	j, _ := openNotes(t, path, Options{Buffer: 4})
	const writers = 4
	accepted := make([]atomic.Int64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := j.Append(&note{N: w}, nil); err != nil {
					if !errors.Is(err, errClosed) {
						t.Errorf("Append: %v", err)
					}
					return
				}
				accepted[w].Add(1)
				if i%10 == 0 {
					if err := j.Sync(); err != nil && !errors.Is(err, errClosed) {
						t.Errorf("Sync: %v", err)
					}
					_ = j.Err()
				}
			}
		}(w)
	}
	for accepted[0].Load() < 50 {
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	loaded, err := LoadJournal(path, noteID)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := make([]int64, writers)
	for _, n := range loaded {
		onDisk[n.N]++
	}
	for w := range onDisk {
		if onDisk[w] != accepted[w].Load() {
			t.Fatalf("writer %d: %d records on disk, %d appends accepted", w, onDisk[w], accepted[w].Load())
		}
	}
}

func TestJournalInMemory(t *testing.T) {
	j, _ := openNotes(t, "", Options{})
	for i := 1; i <= 3; i++ {
		if got := appendNote(t, j, note{}); got.ID != fmt.Sprintf("t-%06d", i) {
			t.Fatalf("in-memory ID %d = %q", i, got.ID)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadJournalMissing(t *testing.T) {
	_, err := LoadJournal(filepath.Join(t.TempDir(), "absent.jsonl"), noteID)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Load of a missing journal = %v, want ErrNotExist", err)
	}
}

// FuzzJournalReopen appends arbitrary bytes after valid records — a torn
// write, a corrupted block, a hand edit — and checks crash repair: opening
// never fails on content, replays exactly the newline-terminated lines that
// parse and carry a new ID, keeps every complete line, and a record appended
// afterwards loads back on its own line after them.
func FuzzJournalReopen(f *testing.F) {
	for _, tail := range []string{
		"",
		`{"id":"t-000003","n":`,
		"\n",
		"GARBAGE\n{\"id\":\"t-000004\"}\n",
		"{\"id\":\"t-000001\",\"n\":9}\n",
		"{\"id\":\"t-000100\"}\r\n{\"id\":",
		"{\"id\":\"t-000005\",\"n\":\"x\"}\n",
		"\x00\x00\x00\x00",
		"{\"id\":\"t-18446744073709551615\"}\n",
	} {
		f.Add([]byte(tail))
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "notes.jsonl")
		content := append([]byte("{\"id\":\"t-000001\",\"n\":1}\n{\"id\":\"t-000002\",\"n\":2}\n"), tail...)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		var want []note
		seen := map[string]bool{}
		for rest := content; ; {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			var n note
			if json.Unmarshal(rest[:i], &n) == nil && n.ID != "" && !seen[n.ID] {
				seen[n.ID] = true
				want = append(want, n)
			}
			rest = rest[i+1:]
		}

		j, replayed := openNotes(t, path, Options{})
		if !reflect.DeepEqual(replayed, want) {
			j.Close()
			t.Fatalf("replayed %+v, want %+v", replayed, want)
		}
		if j.seq == math.MaxUint64 {
			j.Close()
			t.Skip("the tail exhausted the ID sequence")
		}
		added := note{N: -1}
		if err := j.Append(&added, nil); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if kept := content[:bytes.LastIndexByte(content, '\n')+1]; !bytes.HasPrefix(data, kept) {
			t.Fatalf("repair dropped complete lines: %q, want prefix %q", data, kept)
		}
		loaded, err := LoadJournal(path, noteID)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(want, added); !reflect.DeepEqual(loaded, want) {
			t.Fatalf("Load = %+v, want %+v", loaded, want)
		}
	})
}

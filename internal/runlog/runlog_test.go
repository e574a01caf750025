package runlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testClock() func() time.Time {
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return t0.Add(time.Duration(n) * time.Minute)
	}
}

func frontier(points ...[]float64) []FrontierPoint {
	out := make([]FrontierPoint, len(points))
	for i, p := range points {
		out[i] = FrontierPoint{F: p}
	}
	return out
}

func record(workload string, points ...[]float64) Record {
	return Record{
		Workload:   workload,
		Objectives: []string{"latency", "cores"},
		Probes:     30,
		Frontier:   frontier(points...),
		Evals:      100,
	}
}

func TestAppendGetAndQuality(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(filepath.Join(dir, "runs.jsonl"), Options{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	a, err := reg.Append(record("q1", []float64{1, 10}, []float64{2, 5}, []float64{3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "run-000001" {
		t.Fatalf("ID = %q", a.ID)
	}
	if a.Quality.Hypervolume <= 0 || a.Quality.Hypervolume > 1 {
		t.Fatalf("hypervolume = %v", a.Quality.Hypervolume)
	}
	if a.Quality.Coverage != 3 {
		t.Fatalf("coverage = %d", a.Quality.Coverage)
	}
	if a.Quality.PrevRunID != "" || a.Quality.Consistency != 0 {
		t.Fatalf("first run quality = %+v", a.Quality)
	}

	// Second run of the same workload: consistency and delta vs the first.
	b, err := reg.Append(record("q1", []float64{1, 10}, []float64{2, 5}, []float64{3, 2}, []float64{2.5, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if b.Quality.PrevRunID != a.ID {
		t.Fatalf("prev = %q, want %q", b.Quality.PrevRunID, a.ID)
	}
	if b.Quality.Consistency != 0 {
		t.Fatalf("consistency of superset frontier = %v, want 0", b.Quality.Consistency)
	}
	if b.Quality.HypervolumeDelta <= 0 {
		t.Fatalf("delta = %v, want > 0 for a grown frontier", b.Quality.HypervolumeDelta)
	}

	// A different workload starts its own series.
	c, err := reg.Append(record("q2", []float64{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if c.Quality.PrevRunID != "" {
		t.Fatalf("cross-workload prev = %q", c.Quality.PrevRunID)
	}

	got, ok := reg.Get(b.ID)
	if !ok || got.Workload != "q1" || len(got.Frontier) != 4 {
		t.Fatalf("Get(%q) = %+v, %v", b.ID, got, ok)
	}
	if _, ok := reg.Get("run-999999"); ok {
		t.Fatal("Get of unknown ID succeeded")
	}
	if l := reg.List("q1", time.Time{}, 0); len(l) != 2 {
		t.Fatalf("List(q1) = %d records", len(l))
	}
	if l := reg.List("", time.Time{}, 2); len(l) != 2 || l[1].ID != c.ID {
		t.Fatalf("List limit: %+v", l)
	}
	if l := reg.List("q2", time.Time{}, 0); len(l) != 1 || l[0].ID != c.ID {
		t.Fatalf("List(q2) = %+v", l)
	}
}

func TestObjectiveSetSplitsSeries(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(filepath.Join(dir, "runs.jsonl"), Options{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	a := record("q1", []float64{1, 2})
	if _, err := reg.Append(a); err != nil {
		t.Fatal(err)
	}
	b := Record{Workload: "q1", Objectives: []string{"latency", "cost2", "cores"},
		Frontier: frontier([]float64{1, 2, 3})}
	got, err := reg.Append(b)
	if err != nil {
		t.Fatal(err)
	}
	// Different objective set: no cross-dimension comparison is attempted.
	if got.Quality.PrevRunID != "" {
		t.Fatalf("prev = %q, want none across objective sets", got.Quality.PrevRunID)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	reg, err := Open(path, Options{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		rec, err := reg.Append(record("q1", []float64{1, 10}, []float64{2, 5}))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, err := Open(path, Options{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if reg2.Len() != 5 {
		t.Fatalf("reloaded %d records, want 5", reg2.Len())
	}
	for _, id := range ids {
		if _, ok := reg2.Get(id); !ok {
			t.Fatalf("record %s lost across reopen", id)
		}
	}
	// Sequence continues, no ID reuse.
	next, err := reg2.Append(record("q1", []float64{1, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "run-000006" {
		t.Fatalf("next ID = %q, want run-000006", next.ID)
	}
	// Quality still chains to the last pre-restart run.
	if next.Quality.PrevRunID != ids[4] {
		t.Fatalf("prev after restart = %q, want %q", next.Quality.PrevRunID, ids[4])
	}
}

func TestCrashRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	reg, err := Open(path, Options{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := reg.Append(record("q1", []float64{1, 10})); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a half-written final record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"run-000004","workload":"q1","front`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg2, err := Open(path, Options{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if reg2.Len() != 3 {
		t.Fatalf("recovered %d records, want 3 (partial tail dropped)", reg2.Len())
	}
	// The repaired file accepts new appends that parse cleanly afterwards.
	rec, err := reg2.Append(record("q1", []float64{2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != "run-000004" {
		t.Fatalf("post-repair ID = %q", rec.ID)
	}
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("Load after repair = %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if r.Workload != "q1" {
			t.Fatalf("corrupt record surfaced: %+v", r)
		}
	}
}

func TestCorruptInteriorLineSkipped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	lines := []string{
		`{"id":"run-000001","workload":"q1","objectives":["a","b"],"frontier":[{"f":[1,2]}],"quality":{}}`,
		`GARBAGE NOT JSON`,
		`{"id":"run-000003","workload":"q1","objectives":["a","b"],"frontier":[{"f":[1,2]}],"quality":{}}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(path, Options{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if reg.Len() != 2 {
		t.Fatalf("indexed %d records, want 2 (garbage line skipped)", reg.Len())
	}
	// Interior garbage must not truncate the valid records after it.
	if _, ok := reg.Get("run-000003"); !ok {
		t.Fatal("record after garbage line lost")
	}
}

func TestRotationBoundsFileAndKeepsIndex(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	reg, err := Open(path, Options{MaxBytes: 2048, Keep: 2, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := reg.Append(record("q1", []float64{1, 10}, []float64{2, 5})); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Len() != n {
		t.Fatalf("index = %d, want %d", reg.Len(), n)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 2048 {
		t.Fatalf("active file %d bytes, want <= 2048", st.Size())
	}
	if _, err := os.Stat(RotatedPath(path, 1)); err != nil {
		t.Fatal("no rotated file produced")
	}
	// Reopen: records still on disk (active + rotated) come back; the oldest
	// may be gone (dropped past Keep), but recent ones must survive.
	reg2, err := Open(path, Options{MaxBytes: 2048, Keep: 2, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if reg2.Len() == 0 || reg2.Len() > n {
		t.Fatalf("reloaded %d records", reg2.Len())
	}
	if _, ok := reg2.Get(fmt.Sprintf("run-%06d", n)); !ok {
		t.Fatal("latest record lost after rotation+reopen")
	}
	// IDs keep counting past the dropped history.
	rec, err := reg2.Append(record("q1", []float64{1, 10}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != fmt.Sprintf("run-%06d", n+1) {
		t.Fatalf("ID after reopen = %q", rec.ID)
	}
}

func TestRecordsMarshalWithoutNaN(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	reg, err := Open(path, Options{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	// An empty frontier cannot produce a box: quality degrades to the
	// documented sentinel, and the record still hits the disk as valid JSON.
	rec, err := reg.Append(Record{Workload: "q1", Objectives: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Quality.Hypervolume != QualityUnknown {
		t.Fatalf("empty-frontier HV = %v, want %v", rec.Quality.Hypervolume, QualityUnknown)
	}
	if err := reg.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Record
	if err := json.Unmarshal([]byte(strings.TrimSpace(string(data))), &decoded); err != nil {
		t.Fatalf("record line is not valid JSON: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(filepath.Join(dir, "runs.jsonl"), Options{Now: testClock(), Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers, per = 8, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				wl := fmt.Sprintf("q%d", w%3)
				if _, err := reg.Append(record(wl, []float64{1, 10}, []float64{2, 5})); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if reg.Len() != writers*per {
		t.Fatalf("index = %d, want %d", reg.Len(), writers*per)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*per {
		t.Fatalf("disk = %d records, want %d", len(recs), writers*per)
	}
}

func TestRotatingFileSingleWriteLargerThanBound(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.log")
	w, err := OpenRotating(path, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 64) + "\n"
	if _, err := w.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Each oversized write went into its own file, whole.
	for _, p := range []string{path, RotatedPath(path, 1)} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != big {
			t.Fatalf("%s holds %d bytes, want one whole record", p, len(data))
		}
	}
	if _, err := w.Write([]byte("after close")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("Load of missing registry succeeded")
	}
}

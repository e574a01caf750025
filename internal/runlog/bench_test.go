package runlog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// hitRecord is shaped like the record of a served cache hit: a 12-knob
// space, a 16-point 2D frontier, the recommendation with its predicted
// objectives and std, a phase breakdown and an expand history.
func hitRecord() Record {
	rec := Record{
		Workload:       "q10-w009",
		Objectives:     []string{"latency", "cores"},
		Weights:        []float64{0.9, 0.1},
		Probes:         30,
		Recommended:    map[string]float64{},
		Objective:      map[string]float64{"latency": 41.7, "cores": 24},
		PredictedStd:   map[string]float64{"latency": 3.2},
		Served:         "hit",
		Quality:        Quality{UncertainFrac: 0.12},
		Evals:          1840,
		MemoHits:       120,
		MemoMisses:     1720,
		SolveSec:       0.0004,
		TraceRunID:     "opt-7",
		RootSpan:       123456,
		PhaseBreakdown: map[string]float64{"service": 0.0001, "pf": 0.0002, "mogd": 0.00005, "eval": 0.00003, "model": 0.00001},
	}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("spark.knob%02d", i)
		rec.Space.Vars = append(rec.Space.Vars, name)
		rec.Recommended[name] = float64(i)
	}
	rec.Space.Dim = 12
	for i := 0; i < 16; i++ {
		rec.Frontier = append(rec.Frontier, FrontierPoint{F: []float64{10 + float64(i), 64 - 4*float64(i)}})
	}
	for i := 1; i <= 3; i++ {
		rec.Expands = append(rec.Expands, ExpandStep{Probes: 10, TotalProbes: 10 * i, Frontier: 5 * i, Hypervolume: 0.2 * float64(i), UncertainFrac: 0.5 / float64(i), ElapsedSec: 0.1 * float64(i)})
	}
	return rec
}

// BenchmarkRegistryAppend measures what every /optimize answer, cache hits
// included, pays to be recorded: ID issue, the quality block against the
// previous run of the workload, indexing, and the hand-off to the journal's
// writer, which encodes and writes the record on its own goroutine. The
// registry is replaced every 16Ki appends, off the clock, to bound memory.
func BenchmarkRegistryAppend(b *testing.B) {
	dir := b.TempDir()
	var path string
	open := func(k int) *Registry {
		path = filepath.Join(dir, fmt.Sprintf("runs-%d.jsonl", k))
		reg, err := Open(path, Options{MaxBytes: 1 << 20, Keep: 1})
		if err != nil {
			b.Fatal(err)
		}
		return reg
	}
	reg := open(0)
	rec := hitRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%(1<<14) == 0 {
			b.StopTimer()
			if err := reg.Close(); err != nil {
				b.Fatal(err)
			}
			for _, p := range []string{path, RotatedPath(path, 1)} {
				if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
					b.Fatal(err)
				}
			}
			reg = open(i)
			b.StartTimer()
		}
		if _, err := reg.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := reg.Close(); err != nil {
		b.Fatal(err)
	}
}

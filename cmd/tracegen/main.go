// Command tracegen samples configurations of TPCx-BB (or streaming)
// workloads on the simulated cluster and writes the resulting traces to a
// JSON file — the offline training-data collection of §V step 1. Offline
// workloads can additionally be refined with Bayesian-optimization samples
// that seek low-latency configurations.
//
// Examples:
//
//	tracegen -out traces.json -workloads 0-9 -samples 100 -bo 20
//	tracegen -out stream.json -suite stream -workloads 0-5 -samples 60
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench/stream"
	"repro/internal/bench/tpcxbb"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/trace"
)

var (
	out       = flag.String("out", "traces.json", "output file")
	suite     = flag.String("suite", "batch", "workload suite: batch or stream")
	workloads = flag.String("workloads", "0-9", "workload ids: comma list and/or a-b ranges")
	samples   = flag.Int("samples", 100, "heuristic samples per workload")
	boSamples = flag.Int("bo", 0, "additional Bayesian-optimization samples per workload")
	seed      = flag.Int64("seed", 1, "random seed")
)

func main() {
	flag.Parse()
	ids, err := parseIDs(*workloads)
	if err != nil {
		fatal("fatal error", "err", err)
	}
	cluster := spark.DefaultCluster()
	store := trace.NewStore()

	for _, id := range ids {
		var name string
		var spc *space.Space
		var center space.Values
		var runner trace.Runner
		switch *suite {
		case "stream":
			w := stream.ByID(id)
			name = w.Name
			spc = spark.StreamSpace()
			center = spark.DefaultStreamConf(spc)
			runner = stream.Runner(w, spc, cluster)
		default:
			w := tpcxbb.ByID(id)
			name = w.Flow.Name
			spc = spark.BatchSpace()
			center = spark.DefaultBatchConf(spc)
			runner = spark.Runner(w.Flow, spc, cluster)
		}
		rng := rand.New(rand.NewSource(*seed + int64(id)*31))
		confs, err := trace.HeuristicSample(spc, center, *samples, rng)
		if err != nil {
			fatal("fatal error", "err", err)
		}
		if err := trace.Collect(store, spc, name, confs, runner, *seed); err != nil {
			fatal("fatal error", "err", err)
		}
		if *boSamples > 0 {
			if err := trace.BOSample(store, spc, name, "latency", runner, *boSamples, rng); err != nil {
				fatal("fatal error", "err", err)
			}
		}
		fmt.Printf("workload %-18s: %d traces\n", name, *samples+*boSamples)
	}
	if err := store.Save(*out); err != nil {
		fatal("fatal error", "err", err)
	}
	fmt.Printf("wrote %d traces to %s\n", store.Len(), *out)
}

// parseIDs accepts "1,3,7" and "0-9" forms, mixed.
func parseIDs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("bad range %q", part)
			}
			for i := a; i <= b; i++ {
				out = append(out, i)
			}
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad id %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// fatal logs a structured error and exits.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// Streaming demonstrates 3-objective optimization (Expt 2's 3D setting):
// average latency, throughput (maximized) and dollar cost for a streaming
// click-stream workload, with value constraints — the provider requires
// throughput of at least 50k records/second. With k=3 objectives, PF-AP
// partitions the objective space into an l^k grid of hyperrectangles per
// expansion (l=2 below: 8 subproblems solved in parallel per iteration).
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"sort"

	udao "repro"
	"repro/internal/bench/stream"
	"repro/internal/model"
	"repro/internal/modelserver"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/trace"
)

func main() {
	w := stream.ByID(4) // the anomaly-detection UDF workload
	spc := udao.StreamKnobSpace()
	cluster := spark.DefaultCluster()
	fmt.Printf("streaming workload: %s — 3 objectives (latency, throughput, cost), PF-AP l^k grid = 2^3\n\n", w.Name)

	runner := func(conf space.Values, seed int64) (map[string]float64, []float64, error) {
		m, err := stream.Run(w, spc, conf, cluster, seed)
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{
			"latency":    m.LatencySec,
			"throughput": m.Throughput,
		}, m.TraceVector(), nil
	}
	store := trace.NewStore()
	rng := rand.New(rand.NewSource(21))
	confs, err := trace.HeuristicSample(spc, spark.DefaultStreamConf(spc), 70, rng)
	if err != nil {
		fatal("fatal error", "err", err)
	}
	if err := trace.Collect(store, spc, w.Name, confs, runner, 1); err != nil {
		fatal("fatal error", "err", err)
	}
	server := modelserver.New(spc, store, modelserver.Config{Kind: modelserver.GP, LogTargets: true})
	latModel, err := server.Model(w.Name, "latency")
	if err != nil {
		fatal("fatal error", "err", err)
	}
	thrModel, err := server.Model(w.Name, "throughput")
	if err != nil {
		fatal("fatal error", "err", err)
	}
	// Dollar cost of the reserved resources: a c5.xlarge-style on-demand
	// price per core-hour, scaled by memory headroom.
	const pricePerCoreHour = 0.085
	costModel := model.Func{D: spc.Dim(), F: func(x []float64) float64 {
		vals, err := spc.Decode(x)
		if err != nil {
			return 0
		}
		inst, _ := spc.Get(vals, spark.KnobInstances)
		cores, _ := spc.Get(vals, spark.KnobCores)
		mem, _ := spc.Get(vals, spark.KnobMemory)
		return pricePerCoreHour * inst * (cores + 0.25*mem/4)
	}}

	opt, err := udao.NewOptimizer(spc, []udao.Objective{
		{Name: "latency", Model: latModel},
		// Throughput is maximized, with a hard floor of 50k records/s.
		{Name: "throughput", Model: thrModel, Maximize: true, Lower: 50_000, Upper: 3_000_000},
		{Name: "cost", Model: costModel},
	}, udao.Options{Probes: 40, Grid: 2, Seed: 21})
	if err != nil {
		fatal("fatal error", "err", err)
	}

	frontier, err := opt.ParetoFrontier()
	if err != nil {
		fatal("fatal error", "err", err)
	}
	sort.Slice(frontier, func(i, j int) bool {
		return frontier[i].Objectives["latency"] < frontier[j].Objectives["latency"]
	})
	fmt.Printf("3D Pareto frontier (%d points, throughput >= 50k enforced):\n", len(frontier))
	fmt.Printf("  %10s %14s %10s\n", "latency(s)", "thr(rec/s)", "cost($/h)")
	for _, p := range frontier {
		fmt.Printf("  %10.1f %14.0f %10.2f\n",
			p.Objectives["latency"], p.Objectives["throughput"], p.Objectives["cost"])
	}

	// Recommend with a latency-leaning preference and verify the constraint
	// by measuring on the simulator.
	plan, err := opt.Recommend(udao.WUN, []float64{0.6, 0.3, 0.1})
	if err != nil {
		fatal("fatal error", "err", err)
	}
	m, err := stream.Run(w, spc, plan.Config, cluster, 5)
	if err != nil {
		fatal("fatal error", "err", err)
	}
	fmt.Printf("\nrecommended: %s\n", spc.Describe(plan.Config))
	fmt.Printf("measured: latency %.1fs, throughput %.0f rec/s, %g cores (stable=%v)\n",
		m.LatencySec, m.Throughput, m.Cores, m.Stable)
}

// fatal logs a structured error and exits.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

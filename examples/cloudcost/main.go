// Cloudcost demonstrates Use Case 1 (§I): a data-driven business running
// recurring batch analytics that must balance detection latency against
// cloud cost.
//
// The example runs the full UDAO pipeline end to end on the simulated
// substrate: sample configurations of a TPCx-BB workload on the cluster
// simulator, train a Gaussian-process latency model from the traces via the
// model server, compute the latency/cost Pareto frontier over the 12 Spark
// knobs, and compare the recommended configuration against the Spark
// defaults by actually measuring both.
//
// Run with:
//
//	go run ./examples/cloudcost
package main

import (
	"fmt"
	"log/slog"
	"math/rand"
	"os"

	udao "repro"
	"repro/internal/bench/tpcxbb"
	"repro/internal/modelserver"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/trace"
)

func main() {
	// The analytic task: TPCx-BB workload 9 (a SQL template with a join).
	w := tpcxbb.ByID(9)
	spc := udao.BatchKnobSpace()
	cluster := spark.DefaultCluster()
	fmt.Printf("workload %s (template q%02d, %.1fM input rows)\n\n",
		w.Flow.Name, w.Template, w.Flow.InputRows/1e6)

	// 1. Collect traces: 50 sampled configurations on the cluster.
	runner := func(conf space.Values, seed int64) (map[string]float64, []float64, error) {
		m, err := spark.Run(w.Flow, spc, conf, cluster, seed)
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{"latency": m.LatencySec, "cores": m.Cores}, m.TraceVector(), nil
	}
	store := trace.NewStore()
	rng := rand.New(rand.NewSource(7))
	confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), 50, rng)
	if err != nil {
		fatal("fatal error", "err", err)
	}
	if err := trace.Collect(store, spc, w.Flow.Name, confs, runner, 1); err != nil {
		fatal("fatal error", "err", err)
	}
	fmt.Printf("collected %d traces\n", store.Len())

	// 2. Train the latency model on the traces (GP via the model server).
	server := modelserver.New(spc, store, modelserver.Config{Kind: modelserver.GP, LogTargets: true})
	latModel, err := server.Model(w.Flow.Name, "latency")
	if err != nil {
		fatal("fatal error", "err", err)
	}
	fmt.Printf("latency model WMAPE on training traces: %.1f%%\n\n",
		100*modelserver.WMAPE(latModel, store.ForWorkload(w.Flow.Name), "latency"))

	// Cost in #cores is a known function of the knobs (the paper's cost1).
	coresModel := spark.CoresModel(spc)

	// 3. Compute the Pareto frontier and recommend.
	opt, err := udao.NewOptimizer(spc, []udao.Objective{
		{Name: "latency", Model: latModel},
		{Name: "cores", Model: coresModel},
	}, udao.Options{Probes: 30, Seed: 7})
	if err != nil {
		fatal("fatal error", "err", err)
	}
	frontier, err := opt.ParetoFrontier()
	if err != nil {
		fatal("fatal error", "err", err)
	}
	fmt.Printf("Pareto frontier: %d configurations spanning %.0f-%.0f s latency\n",
		len(frontier), minLat(frontier), maxLat(frontier))

	// 4. Measure the recommendation against the Spark defaults.
	plan, err := opt.Recommend(udao.WUN, []float64{0.7, 0.3})
	if err != nil {
		fatal("fatal error", "err", err)
	}
	rec, err := spark.Run(w.Flow, spc, plan.Config, cluster, 99)
	if err != nil {
		fatal("fatal error", "err", err)
	}
	def, err := spark.Run(w.Flow, spc, spark.DefaultBatchConf(spc), cluster, 99)
	if err != nil {
		fatal("fatal error", "err", err)
	}
	fmt.Printf("\nrecommended: %s\n", spc.Describe(plan.Config))
	fmt.Printf("measured:    %.1f s on %g cores (default config: %.1f s on %g cores)\n",
		rec.LatencySec, rec.Cores, def.LatencySec, def.Cores)
	fmt.Printf("latency reduction vs defaults: %.0f%%\n",
		100*(def.LatencySec-rec.LatencySec)/def.LatencySec)
}

func minLat(frontier []udao.Plan) float64 {
	m := frontier[0].Objectives["latency"]
	for _, p := range frontier[1:] {
		if v := p.Objectives["latency"]; v < m {
			m = v
		}
	}
	return m
}

func maxLat(frontier []udao.Plan) float64 {
	m := frontier[0].Objectives["latency"]
	for _, p := range frontier[1:] {
		if v := p.Objectives["latency"]; v > m {
			m = v
		}
	}
	return m
}

// fatal logs a structured error and exits.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

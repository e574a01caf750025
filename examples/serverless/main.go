// Serverless demonstrates Use Case 2 (§I): a cloud provider auto-scaling a
// serverless analytics offering. The load (input rate) is imposed by the
// application's users and changes through the day; the provider re-optimizes
// the configuration within seconds whenever the load shifts, and when only
// the latency/cost preference changes the answer comes instantly from the
// already-computed Pareto frontier (§II-B: "the optimizer can quickly return
// a new configuration from the computed Pareto frontier").
//
// Run with:
//
//	go run ./examples/serverless
package main

import (
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"time"

	udao "repro"
	"repro/internal/bench/stream"
	"repro/internal/modelserver"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/trace"
)

// loadSpace builds the tuning space for a fixed input rate: the load is not
// a knob the provider can turn, so it enters as a degenerate variable.
func loadSpace(rate float64) *udao.Space {
	base := udao.StreamKnobSpace()
	vars := make([]udao.Var, len(base.Vars))
	copy(vars, base.Vars)
	for i := range vars {
		if vars[i].Name == spark.KnobInputRate {
			vars[i] = udao.Var{Name: spark.KnobInputRate, Kind: udao.Integer, Min: rate, Max: rate}
		}
	}
	spc, err := udao.NewSpace(vars)
	if err != nil {
		fatal("fatal error", "err", err)
	}
	return spc
}

// optimizerForLoad collects traces at the given load, trains a latency
// model, and returns a ready optimizer over (latency, computing units).
func optimizerForLoad(w stream.Template, cluster spark.Cluster, rate float64, seed int64) *udao.Optimizer {
	spc := loadSpace(rate)
	runner := func(conf space.Values, s int64) (map[string]float64, []float64, error) {
		m, err := stream.Run(w, spc, conf, cluster, s)
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{"latency": m.LatencySec}, m.TraceVector(), nil
	}
	store := trace.NewStore()
	rng := rand.New(rand.NewSource(seed))
	confs, err := trace.HeuristicSample(spc, spark.DefaultStreamConf(spc), 60, rng)
	if err != nil {
		fatal("fatal error", "err", err)
	}
	if err := trace.Collect(store, spc, w.Name, confs, runner, seed); err != nil {
		fatal("fatal error", "err", err)
	}
	server := modelserver.New(spc, store, modelserver.Config{Kind: modelserver.GP, LogTargets: true})
	latModel, err := server.Model(w.Name, "latency")
	if err != nil {
		fatal("fatal error", "err", err)
	}
	cuModel := spark.CoresModel(spc)
	opt, err := udao.NewOptimizer(spc, []udao.Objective{
		{Name: "latency", Model: latModel},
		{Name: "computing-units", Model: cuModel},
	}, udao.Options{Probes: 30, Seed: seed})
	if err != nil {
		fatal("fatal error", "err", err)
	}
	return opt
}

func main() {
	w := stream.ByID(1) // the funnel-analysis click-stream workload
	cluster := spark.DefaultCluster()
	fmt.Printf("serverless workload: %s\n\n", w.Name)

	// The day's schedule: (load, preference) per period. Frontiers are
	// computed once per load level and cached; preference changes answer
	// from the cache.
	periods := []struct {
		name    string
		rate    float64
		weights []float64
	}{
		{"03:00 off-peak (minimize cost)", 50_000, []float64{0.2, 0.8}},
		{"08:00 morning ramp (balanced)", 400_000, []float64{0.5, 0.5}},
		{"09:00 breaking news (latency!)", 1_200_000, []float64{0.9, 0.1}},
		{"10:00 still busy (relax cost)", 1_200_000, []float64{0.5, 0.5}},
		{"22:00 wind-down", 80_000, []float64{0.3, 0.7}},
	}

	optimizers := map[float64]*udao.Optimizer{}
	for _, p := range periods {
		t0 := time.Now()
		opt, cached := optimizers[p.rate]
		if !cached {
			opt = optimizerForLoad(w, cluster, p.rate, 11)
			if _, err := opt.ParetoFrontier(); err != nil {
				fatal("fatal error", "err", err)
			}
			optimizers[p.rate] = opt
		}
		plan, err := opt.Recommend(udao.WUN, p.weights)
		if err != nil {
			fatal("fatal error", "err", err)
		}
		elapsed := time.Since(t0)
		spc := loadSpace(p.rate)
		m, err := stream.Run(w, spc, plan.Config, cluster, 3)
		if err != nil {
			fatal("fatal error", "err", err)
		}
		how := "frontier recomputed for new load"
		if cached {
			how = "answered from cached frontier"
		}
		fmt.Printf("%-33s load %7.0f rec/s -> %2.0f CUs, latency %5.1fs, stable=%-5v (%v, %s)\n",
			p.name, p.rate, plan.Objectives["computing-units"], m.LatencySec, m.Stable,
			elapsed.Round(time.Microsecond), how)
	}
}

// fatal logs a structured error and exits.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// Pipeline demonstrates the paper's stated future-work extension (§VIII):
// optimizing a *pipeline* of analytic tasks with a stage-wise configuration.
// An ETL stage (SQL+UDF) feeds an ML training stage. The cluster knobs
// (instances, cores, memory) are shared — both stages run on the same
// executors — but each stage tunes its own knob block: the shuffle-heavy ETL
// stage owns parallelism and shuffle knobs, the ML stage owns caching and
// broadcast knobs. UDAO optimizes the composite space end to end and the
// recommended plan carries one configuration per stage.
//
// Run with:
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"sort"

	udao "repro"
	"repro/internal/bench/tpcxbb"
	"repro/internal/modelserver"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/trace"
)

// pick projects named knobs out of the full batch space.
func pick(spc *space.Space, names ...string) []space.Var {
	out := make([]space.Var, len(names))
	for i, n := range names {
		j := spc.Lookup(n)
		if j < 0 {
			fatal("unknown knob", "name", n)
		}
		out[i] = spc.Vars[j]
	}
	return out
}

func main() {
	batch := udao.BatchKnobSpace()
	cluster := spark.DefaultCluster()

	// Shared cluster knobs are tied across stages; each stage adds its own
	// block on top.
	shared := pick(batch, spark.KnobInstances, spark.KnobCores, spark.KnobMemory)
	etlVars := append(append([]space.Var(nil), shared...),
		pick(batch, spark.KnobParallelism, spark.KnobShufflePart, spark.KnobMaxSizeInFlight, spark.KnobCompress)...)
	mlVars := append(append([]space.Var(nil), shared...),
		pick(batch, spark.KnobMemFraction, spark.KnobBatchSize, spark.KnobBroadcast)...)

	// Stage 1: a SQL+UDF workload (template q16); stage 2: an ML workload
	// (template q27).
	workloads := []tpcxbb.Workload{tpcxbb.ByID(15), tpcxbb.ByID(26)}
	stageNames := []string{"etl", "ml"}
	stageSpaces := []*space.Space{space.MustNew(etlVars), space.MustNew(mlVars)}
	fmt.Printf("pipeline: %s (etl, %d knobs) -> %s (ml, %d knobs), %d cluster knobs tied\n\n",
		workloads[0].Flow.Name, stageSpaces[0].NumVars(), workloads[1].Flow.Name, stageSpaces[1].NumVars(), len(shared))

	// Train one latency model per stage *on its own sub-space*: each stage's
	// traces vary only the knobs that stage owns (plus the shared block).
	stageModels := make([]udao.Model, len(workloads))
	for i, w := range workloads {
		spc := stageSpaces[i]
		runner := func(conf space.Values, seed int64) (map[string]float64, []float64, error) {
			m, err := spark.Run(w.Flow, spc, conf, cluster, seed)
			if err != nil {
				return nil, nil, err
			}
			return map[string]float64{"latency": m.LatencySec}, m.TraceVector(), nil
		}
		store := trace.NewStore()
		rng := rand.New(rand.NewSource(int64(31 + i)))
		confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), 50, rng)
		if err != nil {
			fatal("fatal error", "err", err)
		}
		if err := trace.Collect(store, spc, w.Flow.Name, confs, runner, 1); err != nil {
			fatal("fatal error", "err", err)
		}
		server := modelserver.New(spc, store, modelserver.Config{Kind: modelserver.GP, LogTargets: true})
		m, err := server.Model(w.Flow.Name, "latency")
		if err != nil {
			fatal("fatal error", "err", err)
		}
		stageModels[i] = m
	}

	// The composite space ties the cluster knobs and concatenates the stage
	// blocks; pipeline latency is the sum of the stage models, each reading
	// its own sub-vector. Cluster cost depends only on the shared knobs, so
	// one stage contributes it.
	comp, err := udao.NewCompositeSpace(shared, []udao.Stage{
		{Name: stageNames[0], Vars: etlVars},
		{Name: stageNames[1], Vars: mlVars},
	})
	if err != nil {
		fatal("fatal error", "err", err)
	}
	etlSpace := stageSpaces[0]
	coresModel := spark.CoresModel(etlSpace)
	opt, err := udao.NewPipelineOptimizer(comp, []udao.PipelineObjective{
		{Name: "pipeline-latency", StageModels: []udao.Model{stageModels[0], stageModels[1]}},
		{Name: "cores", StageModels: []udao.Model{coresModel, nil}},
	}, udao.Options{Probes: 30, Starts: 16, Seed: 31})
	if err != nil {
		fatal("fatal error", "err", err)
	}
	frontier, err := opt.ParetoFrontier()
	if err != nil {
		fatal("fatal error", "err", err)
	}
	sort.Slice(frontier, func(i, j int) bool {
		return frontier[i].Objectives["pipeline-latency"] < frontier[j].Objectives["pipeline-latency"]
	})
	fmt.Printf("pipeline frontier (%d points):\n  %14s %8s\n", len(frontier), "pipeline(s)", "cores")
	for _, p := range frontier {
		fmt.Printf("  %14.1f %8.0f\n", p.Objectives["pipeline-latency"], p.Objectives["cores"])
	}

	// Recommend with a latency-leaning preference; the plan carries one
	// configuration per stage (shared knobs identical in both).
	plan, err := opt.Recommend(udao.WUN, []float64{0.8, 0.2})
	if err != nil {
		fatal("fatal error", "err", err)
	}
	total := 0.0
	for i, w := range workloads {
		stageConf := plan.Stages[stageNames[i]]
		fmt.Printf("\n%s config: %s\n", stageNames[i], stageSpaces[i].Describe(stageConf))
		m, err := spark.Run(w.Flow, stageSpaces[i], stageConf, cluster, 77)
		if err != nil {
			fatal("fatal error", "err", err)
		}
		fmt.Printf("%s: measured %.1fs on %g cores", w.Flow.Name, m.LatencySec, m.Cores)
		total += m.LatencySec
	}
	def := 0.0
	for i, w := range workloads {
		m, err := spark.Run(w.Flow, stageSpaces[i], spark.DefaultBatchConf(stageSpaces[i]), cluster, 77)
		if err != nil {
			fatal("fatal error", "err", err)
		}
		def += m.LatencySec
	}
	fmt.Printf("\n\npipeline total: %.1fs (default config: %.1fs, %.0f%% reduction)\n",
		total, def, 100*(def-total)/def)
}

// fatal logs a structured error and exits.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

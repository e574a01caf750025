package udao

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/model/dnn"
	"repro/internal/model/gp"
	"repro/internal/spark"
)

// Frontier digests pin the exact bits of full PF-AP runs through the facade —
// the path the server takes for a cold /optimize. The solver contract is
// bit-determinism, so a performance change to the solver, evaluator, space or
// model layers must leave these unchanged; a change that is meant to alter
// numerics must say so and update them.
const (
	digestDNNCores = "5a7dbd921c1c19b7b4fa195c"
	digestDNNAlpha = "13b951de2020569882a4cf8b"
	digestGP       = "da5167fd1f33c7aa5730da90"
	digestPipeline = "9d9b5fa35395a2effc2ed995"
)

// digestTrainingSet samples n lattice points of spc and labels them with a
// smooth synthetic latency surface (falls with parallelism, has a memory and
// partition sweet spot), in log scale like the model server's targets.
func digestTrainingSet(spc *Space, n int, seed int64, scale float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, spc.Dim())
		for d := range x {
			x[d] = rng.Float64()
		}
		rx, err := spc.Round(x)
		if err != nil {
			panic(err)
		}
		par := 1 + 6*rx[1]*rx[2]
		lat := scale/par + 40*(rx[3]-0.6)*(rx[3]-0.6) + 25*(rx[0]-0.4)*(rx[0]-0.4) + 5*rx[len(rx)-1]
		X[i], y[i] = rx, math.Log(lat)
	}
	return X, y
}

func digestDNN(spc *Space, seed int64, scale float64) Model {
	X, y := digestTrainingSet(spc, 64, seed, scale)
	net := dnn.New(spc.Dim(), dnn.Config{Hidden: []int{24, 24}, Epochs: 40, Seed: seed})
	net.Fit(X, y)
	return model.Exp{M: net}
}

// frontierDigest hashes every plan's encoded configuration and objective
// values (in objective order) plus the uncertain fraction, after an initial
// frontier and one incremental expand.
func frontierDigest(t *testing.T, opt *Optimizer, names []string, expand int) string {
	t.Helper()
	if _, err := opt.ParetoFrontier(); err != nil {
		t.Fatal(err)
	}
	plans, err := opt.Expand(expand)
	if err != nil {
		t.Fatal(err)
	}
	unc, err := opt.UncertainSpace()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, p := range plans {
		for _, v := range p.X {
			put(v)
		}
		for _, n := range names {
			put(p.Objectives[n])
		}
	}
	put(unc)
	t.Logf("%d plans, uncertain %.6f", len(plans), unc)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestFrontierDigestDNNCores: DNN latency plus the Decode-based cores
// objective over the 12-knob batch space — the cold-dnn serving shape.
func TestFrontierDigestDNNCores(t *testing.T) {
	spc := spark.BatchSpace()
	opt, err := NewOptimizer(spc, []Objective{
		{Name: "latency", Model: digestDNN(spc, 3, 400)},
		{Name: "cores", Model: spark.CoresModel(spc)},
	}, Options{Probes: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := frontierDigest(t, opt, []string{"latency", "cores"}, 8); got != digestDNNCores {
		t.Fatalf("frontier digest %s, want %s", got, digestDNNCores)
	}
}

// TestFrontierDigestDNNAlpha: the DNNCores problem under the conservative
// α·std uplift, whose DNN std comes from MC dropout. One trained model
// serves two optimizers in turn and both must reach the pinned frontier, so
// the std at a point may not depend on the calls that reached the net
// before, from this run's parallel probes or from an earlier run.
func TestFrontierDigestDNNAlpha(t *testing.T) {
	spc := spark.BatchSpace()
	latency := digestDNN(spc, 3, 400)
	for run := 1; run <= 2; run++ {
		opt, err := NewOptimizer(spc, []Objective{
			{Name: "latency", Model: latency},
			{Name: "cores", Model: spark.CoresModel(spc)},
		}, Options{Probes: 16, Seed: 5, Alpha: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if got := frontierDigest(t, opt, []string{"latency", "cores"}, 8); got != digestDNNAlpha {
			t.Fatalf("optimizer %d: frontier digest %s, want %s", run, got, digestDNNAlpha)
		}
	}
}

// TestFrontierDigestGP: a GP latency model under the conservative α·std
// uplift plus the cores objective — the server's default model kind.
func TestFrontierDigestGP(t *testing.T) {
	spc := spark.BatchSpace()
	X, y := digestTrainingSet(spc, 40, 7, 300)
	g, err := gp.Fit(X, y, gp.Config{MLEIters: 15})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimizer(spc, []Objective{
		{Name: "latency", Model: model.Exp{M: g}},
		{Name: "cores", Model: spark.CoresModel(spc)},
	}, Options{Probes: 12, Seed: 9, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := frontierDigest(t, opt, []string{"latency", "cores"}, 6); got != digestGP {
		t.Fatalf("frontier digest %s, want %s", got, digestGP)
	}
}

// TestFrontierDigestPipeline: a two-stage pipeline over the batch space with
// tied cluster knobs, per-stage DNN latencies summed and cores charged once
// through the first stage — the service's pipeline shape.
func TestFrontierDigestPipeline(t *testing.T) {
	spc := spark.BatchSpace()
	var shared []Var
	for _, name := range []string{spark.KnobInstances, spark.KnobCores, spark.KnobMemory} {
		shared = append(shared, spc.Vars[spc.Lookup(name)])
	}
	c, err := NewCompositeSpace(shared, []Stage{
		{Name: "etl", Vars: spc.Vars},
		{Name: "ml", Vars: spc.Vars},
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := []PipelineObjective{
		{Name: "latency", StageModels: []Model{digestDNN(spc, 11, 500), digestDNN(spc, 13, 250)}},
		{Name: "cores", StageModels: []Model{spark.CoresModel(spc), nil}},
	}
	opt, err := NewPipelineOptimizer(c, objs, Options{Probes: 10, Starts: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := frontierDigest(t, opt, []string{"latency", "cores"}, 4); got != digestPipeline {
		t.Fatalf("frontier digest %s, want %s", got, digestPipeline)
	}
}

// TestExpandSplitsMatchOneExpand pins §IV-A's incremental property at the
// facade on the cold-dnn serving shape: a frontier grown over several Expand
// calls is, bit for bit, the one a single Expand of the summed budget
// computes — every plan's configuration and objectives, the uncertain
// fraction and the probes spent.
func TestExpandSplitsMatchOneExpand(t *testing.T) {
	spc := spark.BatchSpace()
	objs := []Objective{
		{Name: "latency", Model: digestDNN(spc, 3, 400)},
		{Name: "cores", Model: spark.CoresModel(spc)},
	}
	type outcome struct {
		plans  []Plan
		unc    float64
		probes int
	}
	run := func(steps ...int) outcome {
		t.Helper()
		opt, err := NewOptimizer(spc, objs, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		for _, n := range steps {
			if out.plans, err = opt.Expand(n); err != nil {
				t.Fatal(err)
			}
		}
		if out.unc, err = opt.UncertainSpace(); err != nil {
			t.Fatal(err)
		}
		out.probes = opt.Probes()
		return out
	}
	bits := func(p Plan) []uint64 {
		out := []uint64{math.Float64bits(p.Objectives["latency"]), math.Float64bits(p.Objectives["cores"])}
		for _, v := range p.X {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	want := run(30)
	t.Logf("Expand(30): %d plans, uncertain %.6f, %d probes", len(want.plans), want.unc, want.probes)
	for name, steps := range map[string][]int{
		"15+15": {15, 15},
		"10×3":  {10, 10, 10},
		"16+14": {16, 14},
	} {
		got := run(steps...)
		if len(got.plans) != len(want.plans) || math.Float64bits(got.unc) != math.Float64bits(want.unc) || got.probes != want.probes {
			t.Fatalf("%s: %d plans, uncertain %v, %d probes; one Expand(30) gives %d, %v, %d",
				name, len(got.plans), got.unc, got.probes, len(want.plans), want.unc, want.probes)
		}
		for i, p := range got.plans {
			if q := want.plans[i]; !slices.Equal(bits(p), bits(q)) {
				t.Fatalf("%s: plan %d is %v %v, one Expand(30) gives %v %v", name, i, p.X, p.Objectives, q.X, q.Objectives)
			}
		}
	}
}

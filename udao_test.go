package udao

import (
	"math"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/recommend"
	"repro/internal/telemetry"
)

// coresSpace is a 1-knob space over #cores with the paper's Fig. 2 models.
func coresProblem(t *testing.T) (*Space, []Objective) {
	t.Helper()
	spc, err := NewSpace([]Var{{Name: "cores", Kind: Integer, Min: 1, Max: 24}})
	if err != nil {
		t.Fatal(err)
	}
	lat := model.Func{D: 1, F: func(x []float64) float64 {
		return math.Max(100, 2400/(1+23*x[0]))
	}}
	cost := model.Func{D: 1, F: func(x []float64) float64 { return 1 + 23*x[0] }}
	return spc, []Objective{
		{Name: "latency", Model: lat},
		{Name: "cores", Model: cost},
	}
}

func TestNewOptimizerValidation(t *testing.T) {
	spc, objs := coresProblem(t)
	if _, err := NewOptimizer(nil, objs, Options{}); err == nil {
		t.Fatal("nil space accepted")
	}
	if _, err := NewOptimizer(spc, nil, Options{}); err == nil {
		t.Fatal("no objectives accepted")
	}
	if _, err := NewOptimizer(spc, []Objective{{Name: "x"}}, Options{}); err == nil {
		t.Fatal("nil model accepted")
	}
	bad := model.Func{D: 3, F: func(x []float64) float64 { return 0 }}
	if _, err := NewOptimizer(spc, []Objective{{Name: "x", Model: bad}}, Options{}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	// α, Starts and Iters are range-checked once, whichever solver the
	// algorithm selects (PF-S's exact solver reads neither count).
	for _, alg := range []Algorithm{PFAP, PFAS, PFS} {
		for _, alpha := range []float64{-1, math.NaN()} {
			if _, err := NewOptimizer(spc, objs, Options{Algorithm: alg, Alpha: alpha}); err == nil {
				t.Fatalf("algorithm %d accepted Alpha %v", alg, alpha)
			}
		}
		if _, err := NewOptimizer(spc, objs, Options{Algorithm: alg, Starts: -1}); err == nil {
			t.Fatalf("algorithm %d accepted Starts -1", alg)
		}
		if _, err := NewOptimizer(spc, objs, Options{Algorithm: alg, Iters: -1}); err == nil {
			t.Fatalf("algorithm %d accepted Iters -1", alg)
		}
	}
}

// TestUncertainFracAfterFailedReference runs PF-S with a latency bound no
// configuration meets, so the reference-point solve fails. A later Expand
// resolves nothing, and every reader must report the same uncertain
// fraction, 1: the run's History, the udao_pf_uncertain_frac gauge, the
// probe event and the expand span.
func TestUncertainFracAfterFailedReference(t *testing.T) {
	spc, objs := coresProblem(t)
	objs[0].Upper = 50 // latency is at least 100 everywhere
	tel := telemetry.New()
	opt, err := NewOptimizer(spc, objs, Options{Algorithm: PFS, Probes: 10, Seed: 1, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.ParetoFrontier(); err == nil {
		t.Fatal("reference-point solve under an unattainable bound succeeded")
	}
	if front, err := opt.Expand(5); err != nil || len(front) != 0 {
		t.Fatalf("Expand after the failed solve: %d plans, err %v; want 0 plans, nil", len(front), err)
	}
	hist := opt.ExpandHistory()
	if len(hist) != 1 || hist[0].UncertainFrac != 1 {
		t.Fatalf("history %+v, want one step with UncertainFrac 1", hist)
	}
	if g := tel.Metrics.Gauge(telemetry.MetricPFUncertain).Value(); g != 1 {
		t.Errorf("%s gauge = %v, want 1", telemetry.MetricPFUncertain, g)
	}
	seen := map[string]bool{}
	for _, ev := range tel.Trace.Events(opt.RunID()) {
		if ev.Scope != "pf" || (ev.Name != "probe" && ev.Name != "expand") || ev.Detail == "error" {
			continue
		}
		seen[ev.Name] = true
		if u := ev.Attrs["uncertain_frac"]; u != 1 {
			t.Errorf("pf %s event reports uncertain_frac %v, want 1", ev.Name, u)
		}
	}
	if !seen["probe"] || !seen["expand"] {
		t.Errorf("events seen %v, want a probe event and an expand span", seen)
	}
}

func TestParetoFrontierPFAP(t *testing.T) {
	spc, objs := coresProblem(t)
	opt, err := NewOptimizer(spc, objs, Options{Probes: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	front, err := opt.ParetoFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 5 {
		t.Fatalf("frontier has %d plans", len(front))
	}
	for _, p := range front {
		cores, err := spc.Get(p.Config, "cores")
		if err != nil {
			t.Fatal(err)
		}
		if cores != math.Round(cores) || cores < 1 || cores > 24 {
			t.Fatalf("invalid recommended cores %v", cores)
		}
		wantLat := math.Max(100, 2400/cores)
		if math.Abs(p.Objectives["latency"]-wantLat) > 1 {
			t.Fatalf("plan objective mismatch: %v vs %v", p.Objectives["latency"], wantLat)
		}
	}
	u, err := opt.UncertainSpace()
	if err != nil {
		t.Fatal(err)
	}
	if u > 0.3 {
		t.Fatalf("uncertain space %v after 30 probes", u)
	}
}

func TestAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{PFAP, PFAS, PFS} {
		spc, objs := coresProblem(t)
		opt, err := NewOptimizer(spc, objs, Options{Algorithm: alg, Probes: 25, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		front, err := opt.ParetoFrontier()
		if err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		if len(front) < 3 {
			t.Fatalf("alg %d: frontier has %d plans", alg, len(front))
		}
	}
}

func TestRecommendWeightsAdapt(t *testing.T) {
	spc, objs := coresProblem(t)
	opt, err := NewOptimizer(spc, objs, Options{Probes: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := opt.Recommend(WUN, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	latFirst, err := opt.Recommend(WUN, []float64{0.95, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if latFirst.Objectives["latency"] > balanced.Objectives["latency"] {
		t.Fatalf("latency preference ignored: %v vs %v",
			latFirst.Objectives["latency"], balanced.Objectives["latency"])
	}
}

func TestAllStrategies(t *testing.T) {
	spc, objs := coresProblem(t)
	opt, err := NewOptimizer(spc, objs, Options{Probes: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{WUN, UN, SLL, SLR, KPL, KPR} {
		plan, err := opt.Recommend(st, nil)
		if err != nil {
			t.Fatalf("strategy %d: %v", st, err)
		}
		if len(plan.Config) != 1 {
			t.Fatalf("strategy %d: bad plan %+v", st, plan)
		}
	}
}

func TestWorkloadAwareRecommendation(t *testing.T) {
	spc, objs := coresProblem(t)
	long := recommend.LongRunning
	short := recommend.ShortRunning
	optLong, _ := NewOptimizer(spc, objs, Options{Probes: 40, Seed: 5, WorkloadClass: &long})
	optShort, _ := NewOptimizer(spc, objs, Options{Probes: 40, Seed: 5, WorkloadClass: &short})
	pl, err := optLong.Recommend(WUN, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := optShort.Recommend(WUN, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Objectives["cores"] <= ps.Objectives["cores"] {
		t.Fatalf("long-running should get more cores: %v vs %v",
			pl.Objectives["cores"], ps.Objectives["cores"])
	}
}

func TestMaximizeObjective(t *testing.T) {
	spc, err := NewSpace([]Var{{Name: "rate", Kind: Continuous, Min: 0, Max: 1}})
	if err != nil {
		t.Fatal(err)
	}
	thr := model.Func{D: 1, F: func(x []float64) float64 { return 100 * x[0] }}
	lat := model.Func{D: 1, F: func(x []float64) float64 { return 1 + 10*x[0] }}
	opt, err := NewOptimizer(spc, []Objective{
		{Name: "latency", Model: lat},
		{Name: "throughput", Model: thr, Maximize: true},
	}, Options{Probes: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	front, err := opt.ParetoFrontier()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range front {
		if p.Objectives["throughput"] < 0 {
			t.Fatalf("throughput reported negative: %v", p.Objectives)
		}
	}
	// Some frontier point should achieve high throughput.
	best := 0.0
	for _, p := range front {
		if p.Objectives["throughput"] > best {
			best = p.Objectives["throughput"]
		}
	}
	if best < 90 {
		t.Fatalf("max throughput on frontier = %v, want ~100", best)
	}
}

func TestValueConstraints(t *testing.T) {
	spc, objs := coresProblem(t)
	objs[1].Lower = 8
	objs[1].Upper = 16
	opt, err := NewOptimizer(spc, objs, Options{Probes: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	front, err := opt.ParetoFrontier()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range front {
		if c := p.Objectives["cores"]; c < 8 || c > 16 {
			t.Fatalf("constraint violated: cores = %v", c)
		}
	}
}

func TestTimeBudget(t *testing.T) {
	spc, objs := coresProblem(t)
	opt, err := NewOptimizer(spc, objs, Options{Probes: 1 << 20, TimeBudget: 100 * time.Millisecond, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := opt.ParetoFrontier(); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("time budget ignored")
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	spc, objs := coresProblem(t)
	opt, err := NewOptimizer(spc, objs, Options{Probes: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize([]float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objectives["latency"] <= 0 {
		t.Fatalf("bad plan %+v", plan)
	}
}

func TestAnalyticQuickstartModels(t *testing.T) {
	// The 2D paper example runs through the facade too.
	spc, err := NewSpace([]Var{
		{Name: "executors", Kind: Integer, Min: 1, Max: 8},
		{Name: "coresPerExecutor", Kind: Integer, Min: 1, Max: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	lat, cost := analytic.PaperExample2D()
	opt, err := NewOptimizer(spc, []Objective{
		{Name: "latency", Model: lat},
		{Name: "cost", Model: cost},
	}, Options{Probes: 25, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	front, err := opt.ParetoFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 3 {
		t.Fatalf("frontier has %d plans", len(front))
	}
}

func TestUncertainSpaceBeforeFrontier(t *testing.T) {
	spc, objs := coresProblem(t)
	opt, _ := NewOptimizer(spc, objs, Options{})
	if _, err := opt.UncertainSpace(); err == nil {
		t.Fatal("expected error before frontier computation")
	}
}

func TestExpandGrowsFrontier(t *testing.T) {
	spc, objs := coresProblem(t)
	opt, err := NewOptimizer(spc, objs, Options{Probes: 8, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	small, err := opt.ParetoFrontier()
	if err != nil {
		t.Fatal(err)
	}
	large, err := opt.Expand(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(large) < len(small) {
		t.Fatalf("Expand shrank the frontier: %d -> %d", len(small), len(large))
	}
	// Every earlier plan survives (incremental consistency).
	for _, p := range small {
		found := false
		for _, q := range large {
			if p.Objectives["cores"] == q.Objectives["cores"] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("plan with %v cores lost across Expand", p.Objectives["cores"])
		}
	}
	// The recommendation can only improve or stay after expansion.
	u1, _ := opt.UncertainSpace()
	if u1 > 0.5 {
		t.Fatalf("uncertain space after expansion = %v", u1)
	}
}

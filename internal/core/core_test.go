package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/objective"
	"repro/internal/problem"
	"repro/internal/solver"
	"repro/internal/solver/exact"
	"repro/internal/solver/mogd"
	"repro/internal/space"
)

// latticeProblem builds the finite-frontier problem used for Prop. III.1
// checks: integer cores 1..24, latency = max(100, 2400/cores), cost = cores.
// Every lattice point is Pareto optimal, so the true frontier has exactly 24
// points.
func latticeProblem() ([]model.Model, *space.Space) {
	spc := space.MustNew([]space.Var{{Name: "cores", Kind: space.Integer, Min: 1, Max: 24}})
	lat := model.Func{D: 1, F: func(x []float64) float64 {
		return math.Max(100, 2400/(1+23*x[0]))
	}}
	cost := model.Func{D: 1, F: func(x []float64) float64 { return 1 + 23*x[0] }}
	return []model.Model{lat, cost}, spc
}

func trueLatticeFrontier() []objective.Point {
	var out []objective.Point
	for c := 1.0; c <= 24; c++ {
		out = append(out, objective.Point{math.Max(100, 2400/c), c})
	}
	return out
}

// newEvaluator builds a fresh evaluation seam over the models.
func newEvaluator(objs []model.Model, spc *space.Space) *problem.Evaluator {
	return problem.NewEvaluator(problem.MustNew(objs, spc), problem.Options{})
}

func exactSolver(t *testing.T) *exact.Solver {
	t.Helper()
	objs, spc := latticeProblem()
	return exact.New(newEvaluator(objs, spc), exact.Config{Samples: 512})
}

func mogdSolver(t *testing.T) *mogd.Solver {
	t.Helper()
	lat, cost := analytic.PaperExample()
	s, err := mogd.New(newEvaluator([]model.Model{lat, cost}, nil), mogd.Config{Seed: 1, Starts: 6, Iters: 120})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPFSCompleteness2D is the Proposition III.1 check: PF-S with the exact
// solver and an ample probe budget recovers the entire finite Pareto set.
func TestPFSCompleteness2D(t *testing.T) {
	s := exactSolver(t)
	front, err := NewRun(s, false, Options{MinRectFrac: 1e-9}).Expand(400)
	if err != nil {
		t.Fatal(err)
	}
	want := trueLatticeFrontier()
	if len(front) != len(want) {
		t.Fatalf("found %d Pareto points, want %d", len(front), len(want))
	}
	for _, w := range want {
		found := false
		for _, f := range front {
			if math.Abs(f.F[0]-w[0]) < 1e-6 && math.Abs(f.F[1]-w[1]) < 1e-6 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("missing Pareto point %v", w)
		}
	}
}

// TestPFAPCompleteness2D: the parallel variant finds the same frontier.
func TestPFAPCompleteness2D(t *testing.T) {
	s := exactSolver(t)
	front, err := NewRun(s, true, Options{Grid: 2, MinRectFrac: 1e-9}).Expand(600)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 24 {
		t.Fatalf("found %d Pareto points, want 24", len(front))
	}
}

func TestFrontierIsMutuallyNonDominated(t *testing.T) {
	front, err := NewRun(mogdSolver(t), false, Options{Seed: 2}).Expand(20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range front {
		for j := range front {
			if i != j && front[i].F.Dominates(front[j].F) {
				t.Fatalf("frontier contains dominated point: %v dominates %v", front[i].F, front[j].F)
			}
		}
	}
}

// TestIncrementalConsistency: a PF frontier computed with a larger budget
// subsumes one computed with a smaller budget — the consistency property
// that Evo lacks (paper §I challenge 2 and Fig. 4(e)).
func TestIncrementalConsistency(t *testing.T) {
	s := exactSolver(t)
	small, err := NewRun(s, false, Options{}).Expand(10)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewRun(s, false, Options{}).Expand(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(large) < len(small) {
		t.Fatalf("larger budget found fewer points: %d vs %d", len(large), len(small))
	}
	for _, sp := range small {
		found := false
		for _, lp := range large {
			if math.Abs(sp.F[0]-lp.F[0]) < 1e-9 && math.Abs(sp.F[1]-lp.F[1]) < 1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("point %v from the small-budget frontier missing in the large-budget frontier", sp.F)
		}
	}
}

func TestUncertainSpaceDecreasesMonotonically(t *testing.T) {
	var fracs []float64
	_, err := NewRun(exactSolver(t), false, Options{
		OnProgress: func(snap Snapshot) {
			fracs = append(fracs, snap.UncertainFrac)
		},
	}).Expand(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(fracs) < 3 {
		t.Fatalf("too few snapshots: %d", len(fracs))
	}
	if fracs[0] != 1 {
		t.Fatalf("initial uncertain fraction = %v, want 1", fracs[0])
	}
	for i := 1; i < len(fracs); i++ {
		if fracs[i] > fracs[i-1]+1e-9 {
			t.Fatalf("uncertain space increased at step %d: %v -> %v", i, fracs[i-1], fracs[i])
		}
	}
	if last := fracs[len(fracs)-1]; last > 0.9 {
		t.Fatalf("uncertain space barely reduced: %v", last)
	}
}

func TestTimeBudget(t *testing.T) {
	start := time.Now()
	_, err := NewRun(exactSolver(t), false, Options{TimeBudget: 50 * time.Millisecond}).Expand(100000)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("time budget ignored: ran %v", elapsed)
	}
}

func TestProbeBudgetRespected(t *testing.T) {
	probes := 0
	_, err := NewRun(exactSolver(t), false, Options{
		OnProgress: func(s Snapshot) { probes = s.Probes },
	}).Expand(12)
	if err != nil {
		t.Fatal(err)
	}
	if probes > 13 { // k reference probes + middle probes; 1 slack for the final report
		t.Fatalf("issued %d probes for budget 12", probes)
	}
}

func TestGlobalConstraints(t *testing.T) {
	// Constrain cost to [8, 16]: the frontier must respect the box.
	front, err := NewRun(exactSolver(t), false, Options{
		Lower: objective.Point{math.Inf(-1), 8},
		Upper: objective.Point{math.Inf(1), 16},
	}).Expand(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("no frontier under feasible constraints")
	}
	for _, p := range front {
		if p.F[1] < 8-1e-6 || p.F[1] > 16+1e-6 {
			t.Fatalf("frontier point violates cost constraint: %v", p.F)
		}
	}
}

func TestInfeasibleGlobalConstraints(t *testing.T) {
	_, err := NewRun(exactSolver(t), false, Options{
		Lower: objective.Point{0, 0},
		Upper: objective.Point{50, 24}, // latency <= 50 unattainable
	}).Expand(10)
	if err == nil {
		t.Fatal("expected ErrNoReferencePoint")
	}
}

// degenerateSolver models two perfectly aligned objectives: the frontier is
// a single point and the initial rectangle collapses.
type degenerateSolver struct{}

func (degenerateSolver) NumObjectives() int { return 2 }
func (degenerateSolver) Solve(co solver.CO, _ int64) (objective.Solution, bool) {
	return objective.Solution{F: objective.Point{1, 1}, X: []float64{0}}, true
}
func (degenerateSolver) Evals() uint64 { return 0 }
func (d degenerateSolver) SolveBatch(cos []solver.CO, seed int64) []solver.Result {
	out := make([]solver.Result, len(cos))
	for i := range cos {
		sol, ok := d.Solve(cos[i], seed)
		out[i] = solver.Result{Sol: sol, OK: ok}
	}
	return out
}

func TestDegenerateFrontier(t *testing.T) {
	front, err := NewRun(degenerateSolver{}, false, Options{}).Expand(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 1 {
		t.Fatalf("degenerate frontier has %d points, want 1", len(front))
	}
	front, err = NewRun(degenerateSolver{}, true, Options{}).Expand(10)
	if err != nil || len(front) != 1 {
		t.Fatalf("parallel degenerate frontier = %v, %v", front, err)
	}
}

func TestPFASWithMOGD(t *testing.T) {
	front, err := NewRun(mogdSolver(t), false, Options{Seed: 3}).Expand(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 5 {
		t.Fatalf("PF-AS found only %d points", len(front))
	}
	// Frontier must span a real tradeoff range.
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	for _, p := range front {
		minLat = math.Min(minLat, p.F[0])
		maxLat = math.Max(maxLat, p.F[0])
	}
	if maxLat-minLat < 100 {
		t.Fatalf("frontier latency span too small: [%v, %v]", minLat, maxLat)
	}
}

func TestPFAPWithMOGD(t *testing.T) {
	front, err := NewRun(mogdSolver(t), true, Options{Grid: 2, Seed: 4}).Expand(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 5 {
		t.Fatalf("PF-AP found only %d points", len(front))
	}
}

func TestParallelMoreProbesPerRound(t *testing.T) {
	// With grid degree 3 in 2D, each round issues 9 probes.
	var perRound []int
	prev := 0
	_, err := NewRun(exactSolver(t), true, Options{
		Grid: 3,
		OnProgress: func(s Snapshot) {
			perRound = append(perRound, s.Probes-prev)
			prev = s.Probes
		},
	}).Expand(40)
	if err != nil {
		t.Fatal(err)
	}
	// First report is after the 2 reference solves; each subsequent round
	// issues at least the 9 grid probes (plus full-box retries for cells
	// whose lower half-box was empty).
	if len(perRound) < 2 || perRound[0] != 2 || perRound[1] < 9 {
		t.Fatalf("probe batch sizes = %v, want >= 9 per round after init", perRound)
	}
}

// threeDProblem builds three conflicting objectives over a 2-knob lattice:
// latency falls with cores, cost rises with cores, and "io" rises with
// parallelism while latency falls with it.
func threeDProblem(t *testing.T) *mogd.Solver {
	t.Helper()
	lat := model.Func{D: 2, F: func(x []float64) float64 {
		cores := 1 + 23*x[0]
		par := 1 + 9*x[1]
		return 2400/(cores*math.Sqrt(par)) + 50
	}}
	cost := model.Func{D: 2, F: func(x []float64) float64 { return 1 + 23*x[0] }}
	io := model.Func{D: 2, F: func(x []float64) float64 { return 10 + 90*x[1] }}
	s, err := mogd.New(newEvaluator([]model.Model{lat, cost, io}, nil),
		mogd.Config{Seed: 5, Starts: 6, Iters: 100})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPF3DObjectives(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		var front []objective.Solution
		var err error
		if parallel {
			front, err = NewRun(threeDProblem(t), true, Options{Grid: 2, Seed: 6}).Expand(40)
		} else {
			front, err = NewRun(threeDProblem(t), false, Options{Seed: 6}).Expand(30)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(front) < 4 {
			t.Fatalf("parallel=%v: 3D frontier has %d points", parallel, len(front))
		}
		for i := range front {
			if len(front[i].F) != 3 {
				t.Fatalf("point has %d objectives", len(front[i].F))
			}
			for j := range front {
				if i != j && front[i].F.Dominates(front[j].F) {
					t.Fatal("dominated point in 3D frontier")
				}
			}
		}
	}
}

func TestPF3DUncertainSpaceShrinks(t *testing.T) {
	var fracs []float64
	_, err := NewRun(threeDProblem(t), true, Options{
		Grid: 2, Seed: 7,
		OnProgress: func(s Snapshot) { fracs = append(fracs, s.UncertainFrac) },
	}).Expand(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(fracs) < 2 || fracs[len(fracs)-1] > 0.55 {
		t.Fatalf("3D uncertain space stayed at %v", fracs[len(fracs)-1])
	}
}

package mogd

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/problem"
	"repro/internal/solver"
	"repro/internal/space"
)

func inf() (float64, float64) { return math.Inf(-1), math.Inf(1) }

// newSolver builds a solver over a fresh evaluator on the models.
func newSolver(t testing.TB, objs []model.Model, spc *space.Space, cfg Config) *Solver {
	t.Helper()
	s, err := New(problem.NewEvaluator(problem.MustNew(objs, spc), problem.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// paperProblem builds the running TPCx-BB Q2 example of Fig. 2: latency and
// cost over a single #cores variable.
func paperProblem(t *testing.T, cfg Config) *Solver {
	lat, cost := analytic.PaperExample()
	return newSolver(t, []model.Model{lat, cost}, nil, cfg)
}

func TestSingleObjectiveMinimization(t *testing.T) {
	s := paperProblem(t, Config{Seed: 1})
	// Minimizing latency alone should drive cores to max: latency -> 100.
	sol, ok := s.Minimize(0, 1)
	if !ok {
		t.Fatal("no solution")
	}
	if sol.F[0] > 105 {
		t.Fatalf("min latency = %v, want ~100", sol.F[0])
	}
	// Minimizing cost alone drives cores to 1: cost -> 1.
	sol, ok = s.Minimize(1, 2)
	if !ok {
		t.Fatal("no solution")
	}
	if sol.F[1] > 1.5 {
		t.Fatalf("min cost = %v, want ~1", sol.F[1])
	}
}

// TestMiddlePointProbe reproduces the paper's CF1F2 example: min latency
// such that latency ∈ [100, 200] and cost ∈ [8, 16]. The true optimum is at
// cost=16 (cores=16), latency=150.
func TestMiddlePointProbe(t *testing.T) {
	s := paperProblem(t, Config{Seed: 3, Starts: 12, Iters: 200})
	sol, ok := s.Solve(solver.CO{Target: 0, Lo: []float64{100, 8}, Hi: []float64{200, 16}}, 3)
	if !ok {
		t.Fatal("probe found no feasible point")
	}
	if math.Abs(sol.F[0]-150) > 5 {
		t.Fatalf("probe latency = %v, want ~150", sol.F[0])
	}
	if sol.F[1] > 16.01 || sol.F[1] < 8 {
		t.Fatalf("probe cost = %v, want in [8,16]", sol.F[1])
	}
}

func TestInfeasibleConstraints(t *testing.T) {
	s := paperProblem(t, Config{Seed: 4})
	// latency < 100 is unattainable.
	_, ok := s.Solve(solver.CO{Target: 0, Lo: []float64{10, 1}, Hi: []float64{90, 24}}, 4)
	if ok {
		t.Fatal("expected infeasible")
	}
}

func TestOneSidedConstraints(t *testing.T) {
	s := paperProblem(t, Config{Seed: 5, Starts: 12, Iters: 200})
	// Minimize cost subject to latency <= 200 (upper bound only).
	lo := []float64{math.Inf(-1), math.Inf(-1)}
	hi := []float64{200, math.Inf(1)}
	sol, ok := s.Solve(solver.CO{Target: 1, Lo: lo, Hi: hi}, 5)
	if !ok {
		t.Fatal("no solution")
	}
	if sol.F[0] > 201 {
		t.Fatalf("latency constraint violated: %v", sol.F[0])
	}
	// True optimum: cores = 12 (latency exactly 200), cost 12.
	if sol.F[1] > 13 {
		t.Fatalf("cost = %v, want ~12", sol.F[1])
	}
}

func TestSolveWithSpaceRoundsToLattice(t *testing.T) {
	// Integer cores 1..24 via a 1-D integer space; optimum must be integral.
	spc := space.MustNew([]space.Var{{Name: "cores", Kind: space.Integer, Min: 1, Max: 24}})
	lat := model.Func{D: 1, F: func(x []float64) float64 {
		cores := 1 + 23*x[0]
		return math.Max(100, 2400/cores)
	}}
	cost := model.Func{D: 1, F: func(x []float64) float64 { return 1 + 23*x[0] }}
	s := newSolver(t, []model.Model{lat, cost}, spc, Config{Seed: 6, Starts: 12, Iters: 200})
	sol, ok := s.Solve(solver.CO{Target: 0, Lo: []float64{100, 8}, Hi: []float64{200, 16}}, 6)
	if !ok {
		t.Fatal("no solution")
	}
	vals, err := spc.Decode(sol.X)
	if err != nil {
		t.Fatal(err)
	}
	cores := float64(vals[0])
	if cores != math.Round(cores) {
		t.Fatalf("cores = %v not integral", cores)
	}
	if cores < 12 || cores > 16 {
		t.Fatalf("cores = %v, want in [12,16] (latency<=200, cost<=16)", cores)
	}
}

func TestSolveBatchMatchesSolve(t *testing.T) {
	s := paperProblem(t, Config{Seed: 7})
	cos := []solver.CO{
		{Target: 0, Lo: []float64{100, 8}, Hi: []float64{200, 16}},
		{Target: 0, Lo: []float64{100, 1}, Hi: []float64{2400, 24}},
		{Target: 0, Lo: []float64{10, 1}, Hi: []float64{90, 24}}, // infeasible
	}
	batch := s.SolveBatch(cos, 7)
	if len(batch) != 3 {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, co := range cos {
		sol, ok := s.Solve(co, 7+int64(i)*7919)
		if ok != batch[i].OK {
			t.Fatalf("CO %d: batch OK=%v, sequential OK=%v", i, batch[i].OK, ok)
		}
		if ok && math.Abs(sol.F[0]-batch[i].Sol.F[0]) > 1e-9 {
			t.Fatalf("CO %d: batch F=%v, sequential F=%v", i, batch[i].Sol.F, sol.F)
		}
	}
	if batch[2].OK {
		t.Fatal("infeasible CO reported OK")
	}
}

func TestSolveBatchSingleWorker(t *testing.T) {
	s := paperProblem(t, Config{Seed: 8})
	out := solveBatchAt(1, s, []solver.CO{{Target: 0, Lo: []float64{100, 1}, Hi: []float64{2400, 24}}}, 8)
	if len(out) != 1 || !out[0].OK {
		t.Fatal("single-worker batch failed")
	}
}

func TestDeterminism(t *testing.T) {
	s := paperProblem(t, Config{Seed: 9})
	co := solver.CO{Target: 0, Lo: []float64{100, 8}, Hi: []float64{200, 16}}
	a, okA := s.Solve(co, 42)
	b, okB := s.Solve(co, 42)
	if okA != okB || a.F[0] != b.F[0] || a.F[1] != b.F[1] {
		t.Fatalf("same seed gave different results: %v vs %v", a.F, b.F)
	}
}

type uncertainModel struct{ bias float64 }

func (uncertainModel) Dim() int                      { return 1 }
func (u uncertainModel) Predict(x []float64) float64 { return 100 + 100*x[0] }
func (u uncertainModel) PredictVar(x []float64) (float64, float64) {
	return u.Predict(x), 25 // std 5 everywhere
}

func TestUncertaintyAwareObjective(t *testing.T) {
	m := uncertainModel{}
	cost := model.Func{D: 1, F: func(x []float64) float64 { return 1 + x[0] }}
	ev := problem.NewEvaluator(problem.MustNew([]model.Model{m, cost}, nil), problem.Options{Alpha: 2})
	s, err := New(ev, Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	sol, ok := s.Minimize(0, 10)
	if !ok {
		t.Fatal("no solution")
	}
	// Effective objective includes +alpha*std = +10 over the mean (100 at x=0).
	if math.Abs(sol.F[0]-110) > 1 {
		t.Fatalf("conservative objective = %v, want ~110", sol.F[0])
	}
}

func TestSolvePanicsOnBadBounds(t *testing.T) {
	s := paperProblem(t, Config{Seed: 11})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bounds length mismatch")
		}
	}()
	s.Solve(solver.CO{Target: 0, Lo: []float64{1}, Hi: []float64{2}}, 11)
}

func TestImplementsSolverInterface(t *testing.T) {
	var _ solver.Solver = paperProblem(t, Config{})
}

// TestNearStoreBound: the near-start store keeps at most nearCap boxes,
// dropping the oldest first, and a re-solved box keeps its first entry.
func TestNearStoreBound(t *testing.T) {
	st := &nearStore{boxes: make(map[string]nearBox)}
	box := func(i int) solver.CO {
		return solver.CO{Target: 0, Lo: []float64{0}, Hi: []float64{float64(i)}}
	}
	for i := 0; i <= nearCap; i++ {
		st.put(box(i), 1, []float64{float64(i)}, 1)
	}
	st.put(box(nearCap), 1, []float64{-1}, 2)
	if len(st.boxes) != nearCap || len(st.order) != nearCap {
		t.Fatalf("store holds %d boxes under %d keys, want %d", len(st.boxes), len(st.order), nearCap)
	}
	if _, ok := st.boxes[boxKey(box(0), 1)]; ok {
		t.Fatal("the oldest box survived an overflow")
	}
	if b := st.boxes[boxKey(box(nearCap), 1)]; b.x[0] != nearCap || b.epoch != 1 {
		t.Fatalf("a re-solved box replaced its first entry: %+v", b)
	}
}

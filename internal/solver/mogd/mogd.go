// Package mogd implements the paper's Multi-Objective Gradient Descent
// solver (§IV-B): constrained single-objective optimization over learned
// models via a carefully-crafted loss (Eq. 3), Adam updates, multi-start,
// [0,1]^D boundary clamping, and the variable transformation handled by
// package space. It also supports the uncertainty-aware objectives
// F̃(x) = E[F(x)] + α·std[F(x)] of §IV-B.3.
//
// The loss for constrained optimization with target objective i is
//
//	L(x) = 1{0 ≤ F̂i ≤ 1}·F̂i² + Σ_j 1{F̂j < 0 ∨ F̂j > 1}·[(F̂j − ½)² + P]
//
// where F̂j is Fj normalized by its constraint bounds and P is a penalty
// constant. No P appears in the code, because no result depends on it.
// Descent reads only the loss gradient, to which a constant adds nothing.
// Incumbents are chosen by feasibility, then by target value, which is the
// order of L for every P ≥ 1: a feasible point's loss is at most 1, an
// infeasible one's exceeds ¼ + P. Descent directions use the analytic mean
// gradients of the models; the α·std uplift enters the objective values and
// feasibility checks (its gradient is omitted — a documented approximation
// that keeps descent cheap and deterministic for MC-dropout models).
//
// Hot path: all model access goes through a problem.Evaluator. One Solve
// advances ALL multi-starts together — each Adam iteration packs the start
// iterates into a Starts×D matrix and evaluates every objective with one
// batched forward pass (one GEMM per layer, see internal/linalg),
// deferring each objective's backward pass behind a model.BatchGrad
// continuation that is skipped entirely when the objective's loss coefficient
// is zero on every row (constraints strictly inside their box contribute no
// gradient). The batched kernels are bit-identical to the scalar fused path,
// so results match the former per-start implementation exactly. With a
// Space, each iteration then rounds every start's iterate onto the
// configuration lattice (space.RoundInto, allocation-free) and evaluates all
// the rounded candidates in one memoized problem.Evaluator.EvalRows call:
// memo hits are copied, repeated rows are evaluated once, and the misses
// share one batched pass per objective. SolveBatch runs its probes on
// par.For, and with Config.NearStarts each probe warm-starts from the nearest
// box the solver solved before. Models must be safe for concurrent
// Predict/ValueGrad calls.
package mogd

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/objective"
	"repro/internal/par"
	"repro/internal/problem"
	"repro/internal/solver"
	"repro/internal/space"
	"repro/internal/telemetry"
)

// Config tunes the solver. For every field, zero means "use the default";
// negative values are rejected by New. The uncertainty multiplier α of
// §IV-B.3 is the evaluator's (problem.Options.Alpha).
type Config struct {
	Starts int // multi-start count (default 8; start 0 is the center)
	Iters  int // Adam iterations per start (default 100)
	Seed   int64
	// NearStarts, when true, keeps the ε-constraint boxes the solver solved
	// feasibly (the latest nearCap of them) and seeds the last multi-start row
	// of every SolveBatch probe from the solution of the nearest stored box
	// with the same target (L1 distance over the finite bounds; boxes whose
	// infinity patterns differ are incomparable) instead of a random draw.
	// PF expand loops revisit slightly-shifted rectangles, so the neighbour's
	// incumbent is usually feasible here too and descent starts next to the
	// optimum. A solver without NearStarts keeps nothing.
	//
	// Determinism: each SolveBatch sees a SNAPSHOT of the store as of the
	// batch's start — boxes stored during the batch are invisible to its
	// probes — so results are independent of probe scheduling. Standalone
	// Solve calls never near-warm-start. The trade-off is that with
	// NearStarts on, a batch probe's result may legitimately differ from the
	// same (co, seed) solved standalone (it had a better starting point);
	// and if the store overflows nearCap mid-run, WHICH boxes survive depends
	// on the order concurrent probes finished in, making warm starts
	// reproducible only while the working set fits the store.
	NearStarts bool
	// Telemetry, when non-nil, feeds the solver's counters (iterations,
	// boundary clamps, solves, infeasible solves, near warm-starts) and emits
	// one trace event per Solve (per-start events at LevelVerbose), tagged
	// with RunID. The Adam inner loop pays no allocations and no atomics for
	// it — per-start tallies are accumulated locally and flushed once per
	// start.
	Telemetry *telemetry.Telemetry
	RunID     string
}

// Descent constants: the Adam learning rate in normalized x-space, and the
// feasibility tolerance on the normalized scale.
const (
	adamLR  = 0.05
	feasTol = 1e-4
)

// validate rejects explicitly invalid settings; zero stays "default".
func (c Config) validate() error {
	switch {
	case c.Starts < 0:
		return fmt.Errorf("mogd: Starts must be >= 0 (zero means default), got %d", c.Starts)
	case c.Iters < 0:
		return fmt.Errorf("mogd: Iters must be >= 0 (zero means default), got %d", c.Iters)
	}
	return nil
}

func (c *Config) defaults() {
	if c.Starts == 0 {
		c.Starts = 8
	}
	if c.Iters == 0 {
		c.Iters = 100
	}
}

// Solver solves CO problems over its evaluator's problem. It is safe for
// concurrent use as long as the underlying models are.
type Solver struct {
	// ev is the single gateway to the objective models: fused
	// value+gradient passes, memoized lattice evaluations, and the shared
	// evaluation counter all live there.
	ev  *problem.Evaluator
	spc *space.Space
	cfg Config
	dim int
	k   int
	// scratch recycles per-Solve batched buffers (the multi-start matrices)
	// across Solve calls.
	scratch sync.Pool
	// near stores solved boxes for near warm starts (nil without
	// NearStarts).
	near *nearStore
	// epoch stamps stored boxes for NearStarts' snapshot rule: SolveBatch
	// bumps it once at batch start, and near-neighbour lookup only considers
	// boxes stamped before the running batch.
	epoch atomic.Uint64

	// Telemetry instruments (nil when Config.Telemetry is nil), resolved
	// once at construction.
	telIters  *telemetry.Counter
	telClamps *telemetry.Counter
	telSolves *telemetry.Counter
	telInfeas *telemetry.Counter
	telNear   *telemetry.Counter
	tracer    *telemetry.Tracer
	runID     string
	// parentSpan is the span ID the next solve/solve_batch spans nest under,
	// set per expand step by core.Run (and per batch by SolveBatch itself).
	parentSpan atomic.Uint64
}

// New validates the configuration and builds a solver on the evaluator,
// which owns the models, the lattice, α and the memo cache; callers that run
// several optimizers over one problem share its counters this way.
func New(ev *problem.Evaluator, cfg Config) (*Solver, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	s := &Solver{
		ev:  ev,
		spc: ev.Problem().Space,
		cfg: cfg,
		dim: ev.Dim(),
		k:   ev.NumObjectives(),
	}
	if cfg.NearStarts {
		s.near = &nearStore{boxes: make(map[string]nearBox)}
	}
	if tel := cfg.Telemetry; tel != nil {
		s.telIters = tel.Metrics.Counter(telemetry.MetricMOGDIterations)
		s.telClamps = tel.Metrics.Counter(telemetry.MetricMOGDClamps)
		s.telSolves = tel.Metrics.Counter(telemetry.MetricMOGDSolves)
		s.telInfeas = tel.Metrics.Counter(telemetry.MetricMOGDInfeasible)
		s.telNear = tel.Metrics.Counter(telemetry.MetricMOGDCacheNear)
		s.tracer = tel.Trace
		s.runID = cfg.RunID
	}
	s.scratch.New = func() interface{} { return s.newSolveScratch() }
	return s, nil
}

// NumObjectives returns k.
func (s *Solver) NumObjectives() int { return s.k }

// Evals implements solver.Solver.
func (s *Solver) Evals() uint64 { return s.ev.Evals() }

// solveScratch holds one Solve's batched buffers: the multi-start iterate
// matrix, Adam state, loss gradients, the per-objective gradient batch, the
// lattice-rounded candidates, and the objective-value rows (raw iterates and
// rounded candidates). All matrices have one row per start.
type solveScratch struct {
	X     *linalg.Matrix // Starts×dim iterates
	G     *linalg.Matrix // Starts×dim accumulated loss gradients
	Gbuf  *linalg.Matrix // Starts×dim one objective's gradient batch
	mAdam *linalg.Matrix // Starts×dim Adam first moments
	vAdam *linalg.Matrix // Starts×dim Adam second moments
	Y     *linalg.Matrix // Starts×k effective objective values at X
	Xr    *linalg.Matrix // Starts×dim iterates rounded onto the lattice
	Yr    *linalg.Matrix // Starts×k values at the rounded candidates
	bestX *linalg.Matrix // Starts×dim incumbent configurations
	bestF *linalg.Matrix // Starts×k incumbent objective values
	yb    []float64      // per-objective value column
	coeff []float64      // per-row dL/dFj of the current objective
	free  []bool         // objectives with no loss influence (skip forward)
	eval  problem.BatchScratch
	res   []startResult
}

func (s *Solver) newSolveScratch() *solveScratch {
	n := s.cfg.Starts
	return &solveScratch{
		X:     linalg.NewMatrix(n, s.dim),
		G:     linalg.NewMatrix(n, s.dim),
		Gbuf:  linalg.NewMatrix(n, s.dim),
		mAdam: linalg.NewMatrix(n, s.dim),
		vAdam: linalg.NewMatrix(n, s.dim),
		Y:     linalg.NewMatrix(n, s.k),
		Xr:    linalg.NewMatrix(n, s.dim),
		Yr:    linalg.NewMatrix(n, s.k),
		bestX: linalg.NewMatrix(n, s.dim),
		bestF: linalg.NewMatrix(n, s.k),
		yb:    make([]float64, n),
		coeff: make([]float64, n),
		free:  make([]bool, s.k),
		res:   make([]startResult, n),
	}
}

// feasible reports whether f satisfies the CO bounds within tolerance.
func (s *Solver) feasible(co solver.CO, f objective.Point) bool {
	for j := range f {
		lo, hi := co.Lo[j], co.Hi[j]
		span := hi - lo
		if math.IsInf(lo, -1) || math.IsInf(hi, 1) {
			span = math.Max(math.Abs(f[j]), 1)
		}
		tol := feasTol * math.Max(span, 1e-12)
		if !math.IsInf(lo, -1) && f[j] < lo-tol {
			return false
		}
		if !math.IsInf(hi, 1) && f[j] > hi+tol {
			return false
		}
	}
	return true
}

// batchLossGrad evaluates Eq. 3's (sub)gradient at every start iterate in
// one pass, writing the accumulated loss gradients into sc.G and the
// effective objective values into sc.Y. Per objective it runs one batched
// forward pass (one GEMM per layer for DNN models) and requests the backward
// pass only when some row's loss coefficient dL/dFj is nonzero — constraints
// strictly inside their box, and objectives with infinite bounds other than
// the target, contribute no gradient and skip backprop entirely. The loss
// value itself is never materialized: descent uses only the gradient, and
// incumbent selection uses the objective values (exactly as the former
// per-start code, which discarded the returned loss).
//
// Per row, coefficients and the ascending-j accumulation order match the
// scalar fused path bit-for-bit, so trajectories are identical to running
// each start alone.
func (s *Solver) batchLossGrad(co solver.CO, sc *solveScratch) {
	for i := range sc.G.Data {
		sc.G.Data[i] = 0
	}
	n := sc.X.Rows
	for j := 0; j < s.k; j++ {
		if sc.free[j] {
			// No bound and not the target: the value influences neither the
			// loss coefficient nor feasibility, so the whole model pass is
			// skipped. Incumbent F slots are patched once after the descent.
			continue
		}
		h := s.ev.ObjForwardBatch(j, sc.X, sc.yb)
		lo, hi := co.Lo[j], co.Hi[j]
		bounded := !math.IsInf(lo, -1) && !math.IsInf(hi, 1) && hi > lo
		need := false
		for r := 0; r < n; r++ {
			fj := sc.yb[r]
			sc.Y.Row(r)[j] = fj
			var coeff float64 // dL/dFj (raw scale)
			switch {
			case bounded:
				span := hi - lo
				fn := (fj - lo) / span
				switch {
				case fn < 0 || fn > 1:
					coeff = 2 * (fn - 0.5) / span
				case j == co.Target:
					coeff = 2 * fn / span
				}
			case j == co.Target:
				// Unconstrained target: plain minimization; Adam adapts scale.
				coeff = 1
			default:
				// One-sided constraints: quadratic hinge outside the bound.
				if !math.IsInf(lo, -1) && fj < lo {
					coeff = -2 * (lo - fj)
				}
				if !math.IsInf(hi, 1) && fj > hi {
					coeff = 2 * (fj - hi)
				}
			}
			sc.coeff[r] = coeff
			if coeff != 0 {
				need = true
			}
		}
		if need {
			h.Grad(sc.Gbuf)
			for r := 0; r < n; r++ {
				if cf := sc.coeff[r]; cf != 0 {
					g := sc.G.Row(r)
					gb := sc.Gbuf.Row(r)
					for d := range g {
						g[d] += cf * gb[d]
					}
				}
			}
		}
		h.Done()
	}
}

// startResult is one start's best feasible candidate, plus its telemetry
// tally (iterations run and boundary clamps applied).
type startResult struct {
	sol    objective.Solution
	val    float64
	ok     bool
	iters  int
	clamps int
}

// fillStarts draws the multi-start initial iterates into X's rows from a
// single RNG in start order (start 0 is the deterministic center — the
// default configuration x0 of §IV-B). The draw sequence is identical to the
// former per-start implementation, so trajectories carry over bit-for-bit.
func (s *Solver) fillStarts(seed int64, X *linalg.Matrix) {
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ seed))
	for st := 0; st < X.Rows; st++ {
		row := X.Row(st)
		if st == 0 {
			for d := range row {
				row[d] = 0.5 // the default configuration x0
			}
			continue
		}
		for d := range row {
			row[d] = rng.Float64()
		}
	}
}

// considerRow records the candidate x as the start's incumbent if it is
// feasible and improves the target objective. f holds the effective
// objective values at x. With a Space, x is the lattice-rounded candidate
// (see roundCandidates). res.sol's slices are scratch-owned incumbent
// buffers (copied into, never reallocated), so the Adam inner loop stays
// allocation-free; Solve clones the winner before releasing the scratch.
func (s *Solver) considerRow(co solver.CO, x []float64, f objective.Point, res *startResult) {
	if !s.feasible(co, f) {
		return
	}
	if f[co.Target] < res.val {
		res.val = f[co.Target]
		copy(res.sol.X, x)
		copy(res.sol.F, f)
		res.ok = true
	}
}

// roundRow snaps start r's iterate onto the configuration lattice, into row
// r of sc.Xr.
func (s *Solver) roundRow(sc *solveScratch, r int) {
	if err := s.spc.RoundInto(sc.Xr.Row(r), sc.X.Row(r)); err != nil {
		panic(err) // problem.New checked the space against the models' dim
	}
}

// roundCandidates snaps every start's iterate onto the configuration lattice
// and evaluates all the rounded candidates in one memoized batched call. Few
// rows are memo hits (5–6% of lookups measured under PF-AP and PF-AS); the
// misses share one batched model pass per objective.
func (s *Solver) roundCandidates(sc *solveScratch) {
	for r := 0; r < sc.X.Rows; r++ {
		s.roundRow(sc, r)
	}
	s.ev.EvalRows(sc.Xr, sc.Yr, &sc.eval)
}

// solveAllStarts runs every Adam trajectory in lockstep: one batched
// loss-gradient evaluation per iteration advances all starts, then each row
// takes its own Adam step with inline [0,1] clamping. Per-row arithmetic and
// its order match the former per-start loop exactly, so the incumbents in
// sc.res are bit-identical to sequential per-start descent.
func (s *Solver) solveAllStarts(co solver.CO, seed int64, snap uint64, sc *solveScratch) {
	s.fillStarts(seed, sc.X)
	// Near warm start (Config.NearStarts): replace the LAST random draw with
	// the nearest stored neighbour's solution. Overwriting after fillStarts
	// keeps the RNG draw sequence — and with it every other start row —
	// identical to the cold path; keeping rows 0..n-2 preserves the center
	// start and the exploration draws.
	if snap != 0 && sc.X.Rows >= 2 && s.near.warmStart(co, snap, sc.X.Row(sc.X.Rows-1)) {
		s.telNear.Add(1)
	}
	for i := range sc.mAdam.Data {
		sc.mAdam.Data[i] = 0
		sc.vAdam.Data[i] = 0
	}
	for r := range sc.res {
		sc.res[r] = startResult{val: math.Inf(1), sol: objective.Solution{
			X: sc.bestX.Row(r),
			F: objective.Point(sc.bestF.Row(r)),
		}}
	}
	// An objective with no bound on either side that is not the target can
	// never produce a loss coefficient or an infeasibility — its value exists
	// only to be reported in the solution. Skip its model pass during descent
	// (the Minimize base case halves its forward work this way) and patch the
	// incumbents afterwards.
	anyFree := false
	for j := 0; j < s.k; j++ {
		sc.free[j] = j != co.Target && math.IsInf(co.Lo[j], -1) && math.IsInf(co.Hi[j], 1)
		anyFree = anyFree || sc.free[j]
	}
	n := sc.X.Rows
	const b1, b2, eps = 0.9, 0.999, 1e-8
	// Candidates are the iterates themselves without a Space, their
	// lattice-rounded images (in sc.Xr/sc.Yr) with one.
	cx, cf := sc.X, sc.Y
	if s.spc != nil {
		cx, cf = sc.Xr, sc.Yr
	}
	for it := 1; it <= s.cfg.Iters; it++ {
		s.batchLossGrad(co, sc)
		if s.spc != nil {
			s.roundCandidates(sc)
		}
		// Bias-correction denominators hoisted out of the per-dimension loop;
		// the step expression itself is kept in the textbook shape so results
		// stay bit-identical to the unhoisted form.
		t := float64(it)
		c1 := 1 - math.Pow(b1, t)
		c2 := 1 - math.Pow(b2, t)
		for r := 0; r < n; r++ {
			res := &sc.res[r]
			x := sc.X.Row(r)
			s.considerRow(co, cx.Row(r), cf.Row(r), res)
			grad := sc.G.Row(r)
			m := sc.mAdam.Row(r)
			v := sc.vAdam.Row(r)
			for d := range x {
				g := grad[d]
				m[d] = b1*m[d] + (1-b1)*g
				v[d] = b2*v[d] + (1-b2)*g*g
				step := adamLR * (m[d] / c1) / (math.Sqrt(v[d]/c2) + eps)
				// Clamp to the box: GD may push a variable to the boundary but
				// never across it (paper §IV-B.1). Inlined so the clamp tally
				// comes for free; results stay bit-identical.
				nv := x[d] - step
				if nv < 0 {
					nv = 0
					res.clamps++
				} else if nv > 1 {
					nv = 1
					res.clamps++
				}
				x[d] = nv
			}
		}
	}
	// The final iterates are judged one row at a time, in the same model call
	// order as a per-start loop: value at the iterate, then at its rounding.
	for r := 0; r < n; r++ {
		res := &sc.res[r]
		res.iters = s.cfg.Iters
		s.ev.EvalInto(sc.X.Row(r), sc.Y.Row(r))
		if s.spc != nil {
			s.roundRow(sc, r)
			s.ev.EvalInto(sc.Xr.Row(r), sc.Yr.Row(r))
		}
		s.considerRow(co, cx.Row(r), cf.Row(r), res)
	}
	if anyFree && s.spc == nil {
		// Continuous incumbents recorded mid-descent carry stale values in the
		// skipped objectives' slots; fill them from the models now. (With a
		// Space, incumbents were evaluated in full at the rounded point, so
		// there is nothing to patch.)
		for r := range sc.res {
			res := &sc.res[r]
			if !res.ok {
				continue
			}
			for j := 0; j < s.k; j++ {
				if sc.free[j] {
					res.sol.F[j] = s.ev.ObjValue(j, res.sol.X)
				}
			}
		}
	}
}

// Solve runs multi-start Adam on the CO problem. The returned solution holds
// the (rounded, when a Space is configured) configuration and its effective
// objective values; ok is false when no start found a feasible point.
//
// All starts advance together through batched model passes on the calling
// goroutine (parallelism lives at the SolveBatch probe level); the result is
// deterministic: the start points come from one seeded RNG, the per-row
// arithmetic matches sequential per-start descent bit-for-bit, and the
// incumbents are reduced in start order.
func (s *Solver) Solve(co solver.CO, seed int64) (objective.Solution, bool) {
	return s.solve(co, seed, 0)
}

// solve is Solve with a store-snapshot epoch: snap == 0 means "no near warm
// starts" (the standalone path); SolveBatch passes its batch epoch so probes
// may warm-start from boxes stored before the batch began.
func (s *Solver) solve(co solver.CO, seed int64, snap uint64) (objective.Solution, bool) {
	s.checkBounds(co)
	var span telemetry.Span
	if s.telSolves != nil {
		span = s.tracer.StartSpan(telemetry.LevelRun, s.runID, s.parentSpan.Load(), "mogd", "solve")
	}
	sc := s.scratch.Get().(*solveScratch)
	s.solveAllStarts(co, seed, snap, sc)
	if s.tracer.Enabled(telemetry.LevelVerbose) {
		for st := range sc.res {
			r := &sc.res[st]
			s.tracer.Emit(telemetry.LevelVerbose, telemetry.Event{
				Run: s.runID, Scope: "mogd", Name: "start",
				Attrs: map[string]float64{
					"start": float64(st), "iters": float64(r.iters),
					"clamps": float64(r.clamps), "feasible": b2f(r.ok), "best": r.val,
				},
			})
		}
	}
	best, found := s.reduce(sc.res)
	// The per-start incumbents alias pooled scratch buffers; detach the winner
	// before the scratch can be reused.
	sol := cloneSolution(best)
	if !found {
		sol = objective.Solution{}
	}
	if s.telSolves != nil {
		s.observeSolve(co, sc.res, sol, found, span)
	}
	s.scratch.Put(sc)
	if found && s.near != nil {
		s.near.put(co, seed, sol.X, s.epoch.Load())
	}
	return sol, found
}

// observeSolve flushes one Solve's telemetry: aggregate counters plus the
// solve span end (a LevelRun event) carrying the convergence outcome.
func (s *Solver) observeSolve(co solver.CO, results []startResult, sol objective.Solution, found bool, span telemetry.Span) {
	iters, clamps, feasible := 0, 0, 0
	for i := range results {
		iters += results[i].iters
		clamps += results[i].clamps
		if results[i].ok {
			feasible++
		}
	}
	s.telIters.Add(uint64(iters))
	s.telClamps.Add(uint64(clamps))
	s.telSolves.Add(1)
	reason := "feasible"
	if !found {
		s.telInfeas.Add(1)
		reason = "no_feasible_point"
	}
	if span.Recording() {
		attrs := map[string]float64{
			"target": float64(co.Target), "starts": float64(len(results)),
			"iters": float64(iters), "clamps": float64(clamps),
			"feasible_starts": float64(feasible),
		}
		if found {
			attrs["best"] = sol.F[co.Target]
		}
		span.End(reason, attrs)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// SetParentSpan re-parents subsequent solve/solve_batch spans — core.Run
// calls this per expand so solver timing nests under the right expand span.
func (s *Solver) SetParentSpan(id uint64) { s.parentSpan.Store(id) }

// checkBounds panics on malformed CO problems (a programming error, matching
// the solver.Solver contract).
func (s *Solver) checkBounds(co solver.CO) {
	if len(co.Lo) != s.k || len(co.Hi) != s.k {
		panic(fmt.Sprintf("mogd: CO bounds have %d/%d entries for %d objectives", len(co.Lo), len(co.Hi), s.k))
	}
}

// reduce folds per-start results in start order — the same scan order a
// sequential implementation uses.
func (s *Solver) reduce(results []startResult) (objective.Solution, bool) {
	var best objective.Solution
	bestVal := math.Inf(1)
	found := false
	for _, r := range results {
		if r.ok && r.val < bestVal {
			bestVal = r.val
			best = r.sol
			found = true
		}
	}
	return best, found
}

// SolveBatch solves the CO problems concurrently on par.For — the l^k
// simultaneous probes of PF-AP (§IV-C). Results are in input order, and
// each equals what the probe's solve gives however the probes are
// scheduled.
func (s *Solver) SolveBatch(cos []solver.CO, seed int64) []solver.Result {
	out := make([]solver.Result, len(cos))
	for _, co := range cos {
		s.checkBounds(co)
	}
	if span := s.tracer.StartSpan(telemetry.LevelRun, s.runID, s.parentSpan.Load(), "mogd", "solve_batch"); span.Recording() {
		// Inner solves nest under the batch span; the previous parent (the
		// enclosing expand span) is restored when the batch completes.
		outer := s.parentSpan.Swap(span.ID())
		defer func() {
			s.parentSpan.Store(outer)
			ok := 0
			for _, r := range out {
				if r.OK {
					ok++
				}
			}
			span.End("", map[string]float64{"problems": float64(len(cos)), "feasible": float64(ok)})
		}()
	}
	// The batch epoch freezes the near-warm-start snapshot: whatever the
	// store held before this line is fair game for every probe; whatever the
	// probes themselves store is not.
	var snap uint64
	if s.cfg.NearStarts {
		snap = s.epoch.Add(1)
	}
	par.For(len(cos), func(i int) {
		sol, ok := s.solve(cos[i], seed+int64(i)*7919, snap)
		out[i] = solver.Result{Sol: sol, OK: ok}
	})
	return out
}

// Minimize is the single-objective base case (§IV-B.1): minimize objective
// target with no constraints beyond the [0,1]^D box.
func (s *Solver) Minimize(target int, seed int64) (objective.Solution, bool) {
	k := s.k
	lo := make([]float64, k)
	hi := make([]float64, k)
	for j := range lo {
		lo[j] = math.Inf(-1)
		hi[j] = math.Inf(1)
	}
	return s.Solve(solver.CO{Target: target, Lo: lo, Hi: hi}, seed)
}

func cloneSolution(sol objective.Solution) objective.Solution {
	var out objective.Solution
	if sol.F != nil {
		out.F = sol.F.Clone()
	}
	if sol.X != nil {
		out.X = append([]float64(nil), sol.X...)
	}
	return out
}

// nearCap bounds a NearStarts solver's store of solved boxes; the oldest box
// leaves first.
const nearCap = 512

// nearStore holds the ε-constraint boxes a NearStarts solver solved
// feasibly, keyed by boxKey. A re-solved box keeps its first entry.
type nearStore struct {
	mu    sync.Mutex
	boxes map[string]nearBox
	order []string // keys, oldest first
}

// nearBox is one solved box: its target and bounds (copies of the CO's), the
// solution's configuration, and the solver epoch when it was stored, which
// gates which batches may warm-start from it.
type nearBox struct {
	target int
	lo, hi []float64
	x      []float64
	epoch  uint64
}

// boxKey encodes (target, seed, Lo, Hi) exactly — raw float64 bits — so
// distinct constraint boxes can never collide.
func boxKey(co solver.CO, seed int64) string {
	b := make([]byte, 16+16*len(co.Lo))
	binary.LittleEndian.PutUint64(b, uint64(co.Target))
	binary.LittleEndian.PutUint64(b[8:], uint64(seed))
	off := 16
	for _, v := range co.Lo {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	for _, v := range co.Hi {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	return string(b)
}

func (st *nearStore) put(co solver.CO, seed int64, x []float64, epoch uint64) {
	key := boxKey(co, seed)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.boxes[key]; dup {
		return
	}
	if len(st.order) == nearCap {
		delete(st.boxes, st.order[0])
		st.order = append(st.order[:0], st.order[1:]...)
	}
	st.order = append(st.order, key)
	st.boxes[key] = nearBox{
		target: co.Target,
		lo:     append([]float64(nil), co.Lo...),
		hi:     append([]float64(nil), co.Hi...),
		x:      append([]float64(nil), x...),
		epoch:  epoch,
	}
}

// boxDistance is the L1 distance between the requested constraint box and a
// stored box over their finite bounds. Boxes whose infinity patterns differ
// answer a structurally different subproblem and are incomparable.
func boxDistance(co solver.CO, lo, hi []float64) (float64, bool) {
	d := 0.0
	for j := range co.Lo {
		a, b := co.Lo[j], lo[j]
		if math.IsInf(a, -1) != math.IsInf(b, -1) {
			return 0, false
		}
		if !math.IsInf(a, -1) {
			d += math.Abs(a - b)
		}
		a, b = co.Hi[j], hi[j]
		if math.IsInf(a, 1) != math.IsInf(b, 1) {
			return 0, false
		}
		if !math.IsInf(a, 1) {
			d += math.Abs(a - b)
		}
	}
	return d, true
}

// warmStart copies the nearest visible stored neighbour's solution into dst
// and reports whether it found one. Only boxes with the same target, a
// comparable box, and a store epoch before snap qualify; ties in distance
// break toward the smaller key so the scan is independent of map iteration
// order. (A same-box different-seed entry has distance 0 — the most common
// near hit in PF's re-probing pattern.)
func (st *nearStore) warmStart(co solver.CO, snap uint64, dst []float64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	bestD := math.Inf(1)
	bestKey := ""
	var bestX []float64
	for key, b := range st.boxes {
		if b.epoch >= snap || b.target != co.Target {
			continue
		}
		d, comparable := boxDistance(co, b.lo, b.hi)
		if !comparable {
			continue
		}
		if d < bestD || (d == bestD && key < bestKey) {
			bestD, bestKey, bestX = d, key, b.x
		}
	}
	if bestX == nil {
		return false
	}
	copy(dst, bestX)
	return true
}

// Package evo implements NSGA-II [6] (Deb et al.), the evolutionary baseline
// the paper evaluates (§VI-A): fast non-dominated sorting, crowding-distance
// diversity preservation, binary tournament selection, simulated binary
// crossover (SBX) and polynomial mutation over the [0,1]^D decision box.
//
// Being a randomized method, NSGA-II produces frontiers that are not
// consistent across budgets — the frontier built with 50 probes can
// contradict the one built with 40 (paper Fig. 4(e)) — which the Consistency
// metric in internal/metrics quantifies.
package evo

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/linalg"
	"repro/internal/moo"
	"repro/internal/objective"
	"repro/internal/problem"
)

// Method is the NSGA-II baseline.
type Method struct {
	// Evaluator is the problem the method optimizes; its memo cache and
	// evaluation counter are shared with the caller. Whole generations are
	// evaluated through its batch path.
	Evaluator *problem.Evaluator
	// Pop is the population size. Zero sizes the population to the
	// requested point count (min 20, rounded up to even): NSGA-II's final
	// front is capped by its population, so "requesting N Pareto points"
	// means a population of N, as in the paper's probe ladder.
	Pop int
	// GensPerPoint scales generations with the requested point count:
	// generations = max(MinGens, GensPerPoint × Points) (default 2).
	GensPerPoint int
	// MinGens floors the generation count (default 50): NSGA-II needs a
	// substantial number of generations before its front is meaningful,
	// regardless of how few points were requested.
	MinGens int
}

// etaC and etaM are the SBX and polynomial-mutation distribution indices.
// A gene mutates with probability 1/D.
const (
	etaC = 15.0
	etaM = 20.0
)

// Name implements moo.Method.
func (m *Method) Name() string { return "Evo" }

func (m *Method) defaults(points int) {
	if m.Pop == 0 {
		m.Pop = points
		if m.Pop < 20 {
			m.Pop = 20
		}
	}
	if m.Pop%2 == 1 {
		m.Pop++
	}
	if m.GensPerPoint == 0 {
		m.GensPerPoint = 2
	}
	if m.MinGens == 0 {
		m.MinGens = 50
	}
}

type indiv struct {
	x     []float64
	f     objective.Point
	rank  int
	crowd float64
}

// Run implements moo.Method.
func (m *Method) Run(opt moo.Options) ([]objective.Solution, error) {
	tr := opt.Track()
	ev := m.Evaluator
	dim := ev.Dim()
	m.defaults(opt.Points)
	rng := rand.New(rand.NewSource(opt.Seed))

	// Evaluate a whole cohort through the evaluator's batch path: one worker
	// pool per generation instead of per-individual model calls.
	evalCohort := func(xs [][]float64) []indiv {
		fs := ev.EvalBatch(xs)
		out := make([]indiv, len(xs))
		for i := range xs {
			out[i] = indiv{x: xs[i], f: fs[i]}
		}
		return out
	}

	seeds := make([][]float64, m.Pop)
	for i := range seeds {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		seeds[i] = x
	}
	pop := evalCohort(seeds)
	rankAndCrowd(pop)

	gens := m.GensPerPoint * opt.Points
	if gens < m.MinGens {
		gens = m.MinGens
	}
	for g := 0; g < gens; g++ {
		if tr.Expired() {
			break
		}
		offspring := make([][]float64, 0, m.Pop)
		for len(offspring) < m.Pop {
			p1 := tournament(pop, rng)
			p2 := tournament(pop, rng)
			c1, c2 := sbx(p1.x, p2.x, rng)
			mutate(c1, rng)
			mutate(c2, rng)
			offspring = append(offspring, c1, c2)
		}
		pop = survive(append(pop, evalCohort(offspring)...), m.Pop)
		tr.Report(frontier(pop))
	}
	return tr.Finish(frontier(pop)), nil
}

// frontier extracts the rank-0 individuals as a filtered solution set.
func frontier(pop []indiv) []objective.Solution {
	var out []objective.Solution
	for _, ind := range pop {
		if ind.rank == 0 {
			out = append(out, objective.Solution{F: ind.f.Clone(), X: append([]float64(nil), ind.x...)})
		}
	}
	return objective.Filter(out)
}

// rankAndCrowd assigns non-domination ranks and crowding distances in place.
func rankAndCrowd(pop []indiv) {
	n := len(pop)
	domCount := make([]int, n)
	dominates := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if pop[i].f.Dominates(pop[j].f) {
				dominates[i] = append(dominates[i], j)
			} else if pop[j].f.Dominates(pop[i].f) {
				domCount[i]++
			}
		}
	}
	var fronts [][]int
	var current []int
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			pop[i].rank = 0
			current = append(current, i)
		}
	}
	for len(current) > 0 {
		fronts = append(fronts, current)
		var next []int
		for _, i := range current {
			for _, j := range dominates[i] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].rank = len(fronts)
					next = append(next, j)
				}
			}
		}
		current = next
	}
	for _, front := range fronts {
		assignCrowding(pop, front)
	}
}

func assignCrowding(pop []indiv, front []int) {
	if len(front) == 0 {
		return
	}
	k := len(pop[front[0]].f)
	for _, i := range front {
		pop[i].crowd = 0
	}
	for d := 0; d < k; d++ {
		sort.Slice(front, func(a, b int) bool {
			return pop[front[a]].f[d] < pop[front[b]].f[d]
		})
		lo := pop[front[0]].f[d]
		hi := pop[front[len(front)-1]].f[d]
		span := hi - lo
		pop[front[0]].crowd = math.Inf(1)
		pop[front[len(front)-1]].crowd = math.Inf(1)
		if span <= 0 {
			continue
		}
		for i := 1; i < len(front)-1; i++ {
			pop[front[i]].crowd += (pop[front[i+1]].f[d] - pop[front[i-1]].f[d]) / span
		}
	}
}

// survive performs elitist (μ+λ) truncation by rank then crowding.
func survive(union []indiv, target int) []indiv {
	rankAndCrowd(union)
	sort.SliceStable(union, func(a, b int) bool {
		if union[a].rank != union[b].rank {
			return union[a].rank < union[b].rank
		}
		return union[a].crowd > union[b].crowd
	})
	out := make([]indiv, target)
	copy(out, union[:target])
	rankAndCrowd(out)
	return out
}

// tournament is binary tournament selection by (rank, crowding).
func tournament(pop []indiv, rng *rand.Rand) indiv {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if a.rank < b.rank || (a.rank == b.rank && a.crowd > b.crowd) {
		return a
	}
	return b
}

// sbx is simulated binary crossover clipped to [0,1].
func sbx(p1, p2 []float64, rng *rand.Rand) ([]float64, []float64) {
	d := len(p1)
	c1 := make([]float64, d)
	c2 := make([]float64, d)
	for i := 0; i < d; i++ {
		if rng.Float64() < 0.9 {
			u := rng.Float64()
			var beta float64
			if u <= 0.5 {
				beta = math.Pow(2*u, 1/(etaC+1))
			} else {
				beta = math.Pow(1/(2*(1-u)), 1/(etaC+1))
			}
			c1[i] = linalg.Clamp(0.5*((1+beta)*p1[i]+(1-beta)*p2[i]), 0, 1)
			c2[i] = linalg.Clamp(0.5*((1-beta)*p1[i]+(1+beta)*p2[i]), 0, 1)
		} else {
			c1[i], c2[i] = p1[i], p2[i]
		}
	}
	return c1, c2
}

// mutate applies polynomial mutation in place.
func mutate(x []float64, rng *rand.Rand) {
	pMut := 1 / float64(len(x))
	for i := range x {
		if rng.Float64() >= pMut {
			continue
		}
		u := rng.Float64()
		var delta float64
		if u < 0.5 {
			delta = math.Pow(2*u, 1/(etaM+1)) - 1
		} else {
			delta = 1 - math.Pow(2*(1-u), 1/(etaM+1))
		}
		x[i] = linalg.Clamp(x[i]+delta, 0, 1)
	}
}

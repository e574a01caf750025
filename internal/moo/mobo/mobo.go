// Package mobo implements multi-objective Bayesian optimization baselines
// (§VI-A): a qEHVI-style method after BoTorch [5] — Monte-Carlo expected
// hypervolume improvement over per-objective Gaussian-process surrogates —
// and a PESM-style method after Spearmint [10].
//
// Substitution note (documented in DESIGN.md): the true PESM acquisition is
// predictive entropy search over the Pareto set, which requires expensive
// approximations of the posterior over frontiers. Here PESM is realized as a
// Thompson-sampling Pareto-membership estimate with a large Monte-Carlo
// budget; it plays the same experimental role — a MOBO method that is even
// slower per point than qEHVI while exploring through posterior uncertainty.
//
// Both methods evaluate the objective models directly (the models are the
// "true functions" the paper's MOO study optimizes) and refit their GPs
// after every evaluation, which is what makes MOBO take tens of seconds to
// produce its first Pareto set (Fig. 4(d)).
package mobo

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/model/gp"
	"repro/internal/moo"
	"repro/internal/objective"
	"repro/internal/problem"
)

// Acquisition selects the acquisition function.
type Acquisition int

// Supported acquisitions.
const (
	QEHVI Acquisition = iota // MC expected hypervolume improvement
	PESM                     // Thompson-sampled Pareto-membership entropy proxy
)

// Method is a MOBO baseline.
type Method struct {
	// Evaluator is the problem the method optimizes; its memo cache and
	// evaluation counter are shared with the caller. Only true-function
	// observations go through it; the GP surrogates' own posterior queries
	// do not (they are not evaluations of the problem).
	Evaluator *problem.Evaluator
	Acq       Acquisition
	// Init is the initial random design size (default 2D+1).
	Init int
	// Candidates is the number of random acquisition candidates per
	// iteration (default 512 for qEHVI, 1024 for PESM; BoTorch/Spearmint
	// optimize their acquisitions with comparably heavy restarts).
	Candidates int
	// MCSamples is the Monte-Carlo sample count per candidate (default 32
	// for qEHVI, 128 for PESM — PESM's larger budget is what makes it
	// slower, as in the paper).
	MCSamples int
	// GPIters bounds the per-refit GP hyperparameter optimization
	// (default 30; MOBO refits k GPs with full hyperparameter learning
	// every iteration, which dominates its runtime as observations grow).
	GPIters int
}

// Name implements moo.Method.
func (m *Method) Name() string {
	if m.Acq == PESM {
		return "PESM"
	}
	return "qEHVI"
}

func (m *Method) defaults(d int) {
	if m.Init == 0 {
		m.Init = 2*d + 1
	}
	if m.Candidates == 0 {
		if m.Acq == PESM {
			m.Candidates = 1024
		} else {
			m.Candidates = 512
		}
	}
	if m.MCSamples == 0 {
		if m.Acq == PESM {
			m.MCSamples = 128
		} else {
			m.MCSamples = 32
		}
	}
	if m.GPIters == 0 {
		m.GPIters = 30
	}
}

// Run implements moo.Method.
func (m *Method) Run(opt moo.Options) ([]objective.Solution, error) {
	tr := opt.Track()
	ev := m.Evaluator
	dim := ev.Dim()
	k := ev.NumObjectives()
	m.defaults(dim)
	rng := rand.New(rand.NewSource(opt.Seed))

	var X [][]float64
	var F []objective.Point
	for i := 0; i < m.Init; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		X = append(X, x)
		F = append(F, ev.Eval(x))
	}

	// The initial design is not reported: MOBO has not "returned" anything
	// until its first acquisition round completes (cf. Fig. 4(d), where
	// qEHVI needs 48 s to the first Pareto set).

	for it := 0; it < opt.Points; it++ {
		if tr.Expired() {
			break
		}
		// Refit one GP per objective on all observations.
		gps := make([]*gp.GP, k)
		for j := 0; j < k; j++ {
			ys := make([]float64, len(F))
			for i := range F {
				ys[i] = F[i][j]
			}
			g, err := gp.Fit(X, ys, gp.Config{MLEIters: m.GPIters})
			if err != nil {
				return nil, fmt.Errorf("mobo: GP refit failed: %w", err)
			}
			gps[j] = g
		}
		utopia, nadir := observedBox(F)
		var next []float64
		switch m.Acq {
		case PESM:
			next = m.pesmNext(gps, F, utopia, nadir, rng)
		default:
			next = m.qehviNext(gps, F, utopia, nadir, rng)
		}
		X = append(X, next)
		F = append(F, ev.Eval(next))
		tr.Report(currentFrontier(X, F))
	}
	return tr.Finish(currentFrontier(X, F)), nil
}

func currentFrontier(X [][]float64, F []objective.Point) []objective.Solution {
	sols := make([]objective.Solution, len(F))
	for i := range F {
		sols[i] = objective.Solution{F: F[i].Clone(), X: append([]float64(nil), X[i]...)}
	}
	return objective.Filter(sols)
}

func observedBox(F []objective.Point) (utopia, nadir objective.Point) {
	utopia, nadir = objective.Bounds(F)
	// Pad degenerate axes so normalization stays defined.
	for j := range utopia {
		if nadir[j] <= utopia[j] {
			nadir[j] = utopia[j] + 1
		}
	}
	return utopia, nadir
}

// qehviNext picks the candidate maximizing MC expected hypervolume
// improvement of the posterior sample over the current frontier.
//
// The improvement is estimated against a fixed Monte-Carlo reference set
// shared by all candidates and posterior samples: the box points not yet
// dominated by the frontier. A posterior sample's hypervolume improvement is
// then the fraction of those points it dominates — O(|undominated|) per
// sample instead of a full hypervolume computation, which keeps the 3D
// streaming experiments tractable while preserving the acquisition's
// ordering.
func (m *Method) qehviNext(gps []*gp.GP, F []objective.Point, utopia, nadir objective.Point, rng *rand.Rand) []float64 {
	dim := gps[0].Dim()
	k := len(gps)
	frontPts := frontierPoints(F)
	undominated := undominatedReference(frontPts, utopia, nadir, rng)
	var bestX []float64
	bestAcq := math.Inf(-1)
	sample := make(objective.Point, k)
	for c := 0; c < m.Candidates; c++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		means := make([]float64, k)
		stds := make([]float64, k)
		for j, g := range gps {
			mu, v := g.PredictVar(x)
			means[j] = mu
			stds[j] = math.Sqrt(v)
		}
		improvement := 0
		for s := 0; s < m.MCSamples; s++ {
			for j := 0; j < k; j++ {
				sample[j] = means[j] + stds[j]*rng.NormFloat64()
			}
			for _, r := range undominated {
				if sample.WeaklyDominates(r) {
					improvement++
				}
			}
		}
		if acq := float64(improvement) / float64(m.MCSamples); acq > bestAcq {
			bestAcq = acq
			bestX = x
		}
	}
	return bestX
}

// undominatedReference draws a fixed reference sample of the objective box
// and keeps the points the current frontier does not dominate.
func undominatedReference(front []objective.Point, utopia, nadir objective.Point, rng *rand.Rand) []objective.Point {
	const refSamples = 512
	k := len(utopia)
	var out []objective.Point
	for i := 0; i < refSamples; i++ {
		p := make(objective.Point, k)
		for j := 0; j < k; j++ {
			p[j] = utopia[j] + rng.Float64()*(nadir[j]-utopia[j])
		}
		dominated := false
		for _, f := range front {
			if f.WeaklyDominates(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// pesmNext scores each candidate by the Thompson-sampled probability that
// its posterior draw is non-dominated by the current frontier, weighted by
// its total posterior std — a cheap surrogate for the information gained
// about the Pareto set.
func (m *Method) pesmNext(gps []*gp.GP, F []objective.Point, utopia, nadir objective.Point, rng *rand.Rand) []float64 {
	dim := gps[0].Dim()
	k := len(gps)
	frontPts := frontierPoints(F)
	var bestX []float64
	bestAcq := math.Inf(-1)
	for c := 0; c < m.Candidates; c++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		means := make([]float64, k)
		stds := make([]float64, k)
		totalStd := 0.0
		for j, g := range gps {
			mu, v := g.PredictVar(x)
			means[j] = mu
			stds[j] = math.Sqrt(v)
			span := nadir[j] - utopia[j]
			totalStd += stds[j] / span
		}
		nonDominated := 0
		sample := make(objective.Point, k)
		for s := 0; s < m.MCSamples; s++ {
			for j := 0; j < k; j++ {
				sample[j] = means[j] + stds[j]*rng.NormFloat64()
			}
			dominated := false
			for _, p := range frontPts {
				if p.Dominates(sample) {
					dominated = true
					break
				}
			}
			if !dominated {
				nonDominated++
			}
		}
		pND := float64(nonDominated) / float64(m.MCSamples)
		// Entropy-style weighting: candidates whose Pareto membership is
		// uncertain (p close to 1/2) and whose posterior is wide carry the
		// most information.
		acq := pND*(1-pND) + 0.1*totalStd
		if acq > bestAcq {
			bestAcq = acq
			bestX = x
		}
	}
	return bestX
}

func frontierPoints(F []objective.Point) []objective.Point {
	sols := make([]objective.Solution, len(F))
	for i := range F {
		sols[i] = objective.Solution{F: F[i]}
	}
	filtered := objective.Filter(sols)
	out := make([]objective.Point, len(filtered))
	for i := range filtered {
		out[i] = filtered[i].F
	}
	return out
}

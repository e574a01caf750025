// Package problem defines the single evaluation contract every optimizer in
// this repository shares: a Problem binds the decision-variable space
// (internal/space) to the minimization-oriented objective models
// (internal/model), and an Evaluator is the only way solver code touches
// those models.
//
// The paper frames all of its methods — PF/MOGD (§IV), the WS/NC/Evo/MOBO
// baselines (§VI-A) and OtterTune (§VI-B) — as optimizers over the same
// object: a set of learned objective functions on an encoded decision space.
// Centralizing evaluation behind one seam gives every method the fused
// value+gradient hot path, parallel batch evaluation, per-problem
// memoization on the configuration lattice, and a comparable evaluation
// count (the efficiency axis of §VI) for free, and gives future model
// backends exactly one integration point.
package problem

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/space"
)

// Problem is one tuning problem: k minimization-oriented objective models
// over a shared encoded decision space [0,1]^D, with an optional
// configuration lattice for rounding solutions to deployable configurations.
type Problem struct {
	// Objectives are the models Ψ₁…Ψₖ, all oriented for minimization
	// (maximization objectives are wrapped with model.Negated by the caller,
	// per Problem III.1).
	Objectives []model.Model
	// Space, when non-nil, is the configuration lattice the decision space
	// encodes; its Dim must match the models'.
	Space *space.Space
}

// New validates objective dimensions against each other and the optional
// space and returns the problem.
func New(objs []model.Model, spc *space.Space) (*Problem, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("problem: no objectives")
	}
	dim := objs[0].Dim()
	for i, m := range objs {
		if m == nil {
			return nil, fmt.Errorf("problem: objective %d is nil", i)
		}
		if m.Dim() != dim {
			return nil, fmt.Errorf("problem: objective %d has dim %d, want %d", i, m.Dim(), dim)
		}
	}
	if spc != nil && spc.Dim() != dim {
		return nil, fmt.Errorf("problem: space dim %d != objective dim %d", spc.Dim(), dim)
	}
	return &Problem{Objectives: objs, Space: spc}, nil
}

// MustNew is New for static problem definitions; it panics on error.
func MustNew(objs []model.Model, spc *space.Space) *Problem {
	p, err := New(objs, spc)
	if err != nil {
		panic(err)
	}
	return p
}

// Dim returns the encoded decision-space dimensionality D.
func (p *Problem) Dim() int { return p.Objectives[0].Dim() }

// Composite spaces: stage-wise variable spaces for pipeline-of-tasks
// optimization (paper §VIII's future-work direction). A pipeline's
// configuration is *structured* — a block of cluster knobs shared by every
// stage plus one knob block per stage — but the solver stack (MOGD's
// clamp/round, the DNN/GP encodings, the evaluator's memoization) operates on
// one flat vector. A Composite bridges the two: it concatenates the shared
// block and the per-stage blocks into one flat Space, so Encode, Decode,
// Round and Lookup work unchanged on the concatenated encoding, and it keeps
// the stage structure around — which encoded dimensions form each stage's
// sub-vector, in the exact layout that stage's models were trained on.
//
// Tying is by name: a stage variable whose name matches a shared variable is
// the shared variable — it occupies the shared block's dimensions and is
// automatically consistent across every stage that references it. Stage-local
// variables are qualified "stage.name" in the flat space, so equally-named
// knobs in different stages (e.g. both stages tune shuffle partitions) stay
// independent.
package space

import "fmt"

// Stage is one named stage of a composite space. Vars lists the stage's full
// sub-space in its own order — the layout the stage's models consume.
// Variables whose Name matches a shared variable are tied to it; they must
// carry an identical definition.
type Stage struct {
	Name string
	Vars []Var
}

// Composite is a stage-wise variable space flattened to one concatenated
// encoding. The embedded Space is the flat view — shared variables first
// (unqualified), then each stage's own variables qualified "stage.name" — and
// provides the full Encode/Decode/Round/Lookup contract over it.
type Composite struct {
	*Space
	// Stages are the stage definitions, in declaration order.
	Stages []Stage

	stageSpaces []*Space
	// stageVars[i][j] is the flat-space variable index of stage i's j-th
	// variable (a shared index for tied variables).
	stageVars [][]int
	// stageDims[i] lists the flat encoded dimensions of stage i's sub-vector,
	// in the stage's own variable order (tied variables contribute the shared
	// block's dimensions).
	stageDims [][]int
}

// QualifiedName returns the flat-space name of a stage-local variable.
func QualifiedName(stage, name string) string { return stage + "." + name }

// sameVar reports whether two variable definitions are interchangeable, which
// tying requires: a tied variable is the shared one, so any difference in
// kind, bounds, scale or levels would silently change a stage's semantics.
func sameVar(a, b Var) bool {
	if a.Kind != b.Kind || a.Min != b.Min || a.Max != b.Max || a.Log != b.Log || len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			return false
		}
	}
	return true
}

// NewComposite validates the shared block and the stage definitions and
// builds the concatenated space.
func NewComposite(shared []Var, stages []Stage) (*Composite, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("space: composite needs at least one stage")
	}
	sharedIdx := make(map[string]int, len(shared))
	flat := make([]Var, 0, len(shared))
	for i, v := range shared {
		if v.Name == "" {
			return nil, fmt.Errorf("space: shared variable %d has no name", i)
		}
		if _, dup := sharedIdx[v.Name]; dup {
			return nil, fmt.Errorf("space: duplicate shared variable %q", v.Name)
		}
		sharedIdx[v.Name] = i
		flat = append(flat, v)
	}

	c := &Composite{Stages: stages}
	stageNames := make(map[string]bool, len(stages))
	// First pass: validate stages and lay out the flat variable list; the
	// per-variable flat indices are resolved now, the encoded dimensions after
	// New lays out the encoding.
	for si, st := range stages {
		if st.Name == "" {
			return nil, fmt.Errorf("space: stage %d has no name", si)
		}
		if stageNames[st.Name] {
			return nil, fmt.Errorf("space: duplicate stage %q", st.Name)
		}
		stageNames[st.Name] = true
		if len(st.Vars) == 0 {
			return nil, fmt.Errorf("space: stage %q has no variables", st.Name)
		}
		sub, err := New(st.Vars)
		if err != nil {
			return nil, fmt.Errorf("space: stage %q: %w", st.Name, err)
		}
		c.stageSpaces = append(c.stageSpaces, sub)

		seen := make(map[string]bool, len(st.Vars))
		idx := make([]int, len(st.Vars))
		for vi, v := range st.Vars {
			if seen[v.Name] {
				return nil, fmt.Errorf("space: stage %q declares %q twice", st.Name, v.Name)
			}
			seen[v.Name] = true
			if shi, tied := sharedIdx[v.Name]; tied {
				if !sameVar(v, shared[shi]) {
					return nil, fmt.Errorf("space: stage %q variable %q differs from the shared definition", st.Name, v.Name)
				}
				idx[vi] = shi
				continue
			}
			q := v
			q.Name = QualifiedName(st.Name, v.Name)
			idx[vi] = len(flat)
			flat = append(flat, q)
		}
		c.stageVars = append(c.stageVars, idx)
	}

	spc, err := New(flat)
	if err != nil {
		return nil, err
	}
	c.Space = spc
	for si := range stages {
		var dims []int
		for _, fi := range c.stageVars[si] {
			vc := &spc.codecs[fi]
			for d := 0; d < vc.width; d++ {
				dims = append(dims, vc.off+d)
			}
		}
		c.stageDims = append(c.stageDims, dims)
	}
	return c, nil
}

// NumStages returns the number of stages.
func (c *Composite) NumStages() int { return len(c.Stages) }

// StageSpace returns stage i's sub-space — the stage's variables in their own
// order, exactly the space the stage's models are trained on.
func (c *Composite) StageSpace(i int) *Space { return c.stageSpaces[i] }

// StageDims returns the flat encoded dimensions forming stage i's sub-vector,
// in the stage sub-space's encoding order. The returned slice is owned by the
// composite; callers must not modify it.
func (c *Composite) StageDims(i int) []int { return c.stageDims[i] }

// Gather extracts stage i's sub-vector from a flat encoded point into dst,
// which is used as the output buffer when it has the stage's encoded
// dimensionality and reallocated otherwise.
func (c *Composite) Gather(i int, x []float64, dst []float64) []float64 {
	dims := c.stageDims[i]
	if len(dst) != len(dims) {
		dst = make([]float64, len(dims))
	}
	for j, d := range dims {
		dst[j] = x[d]
	}
	return dst
}

// StageValues extracts stage i's raw assignment (in its sub-space's variable
// order) from a flat raw assignment.
func (c *Composite) StageValues(vals Values, i int) (Values, error) {
	if len(vals) != len(c.Space.Vars) {
		return nil, fmt.Errorf("space: StageValues got %d values for %d variables", len(vals), len(c.Space.Vars))
	}
	idx := c.stageVars[i]
	out := make(Values, len(idx))
	for j, fi := range idx {
		out[j] = vals[fi]
	}
	return out, nil
}

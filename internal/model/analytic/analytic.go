// Package analytic provides handcrafted regression models of the kind the
// paper cites as "Handcrafted models" (§II-B remark 1, Ernest [36]): simple
// closed-form functions of a small set of resource parameters, usable
// directly as MOGD objectives. They serve the quickstart example and as
// well-understood ground truth in tests, where the true Pareto frontier can
// be derived by hand.
package analytic

import (
	"math"

	"repro/internal/model"
)

// Latency is an Ernest-style latency model over a normalized decision space
// x ∈ [0,1]^D whose first two coordinates encode the number of executors and
// cores per executor:
//
//	cores(x)  = (1 + x0·(MaxExec-1)) · (1 + x1·(MaxCores-1))
//	latency   = Serial + Work/cores + Shuffle·log2(1+cores) + Fixed·cores^γ
//
// The Work term captures parallelizable computation, the Shuffle term the
// coordination overhead that grows with the cluster (the "diminishing
// returns" regime), and γ (default 0) an optional straggler exponent.
type Latency struct {
	D        int     // decision-space dimensionality (>= 2)
	MaxExec  float64 // maximum number of executors (x0 = 1)
	MaxCores float64 // maximum cores per executor (x1 = 1)
	Serial   float64 // non-parallelizable seconds
	Work     float64 // parallelizable core-seconds
	Shuffle  float64 // per-log2(cores) coordination seconds
}

// Cores returns the total core count encoded by x.
func (l Latency) Cores(x []float64) float64 {
	e := 1 + x[0]*(l.MaxExec-1)
	c := 1 + x[1]*(l.MaxCores-1)
	return e * c
}

// Dim implements model.Model.
func (l Latency) Dim() int { return l.D }

// Predict implements model.Model.
func (l Latency) Predict(x []float64) float64 {
	cores := l.Cores(x)
	return l.Serial + l.Work/cores + l.Shuffle*math.Log2(1+cores)
}

// ValueGrad implements model.ValueGradienter with the analytic derivative;
// the core count and its partial derivatives are shared between the value
// and the gradient.
func (l Latency) ValueGrad(x, grad []float64) (float64, []float64) {
	g := model.GradBuf(grad, l.D)
	for i := range g {
		g[i] = 0
	}
	e := 1 + x[0]*(l.MaxExec-1)
	c := 1 + x[1]*(l.MaxCores-1)
	cores := e * c
	val := l.Serial + l.Work/cores + l.Shuffle*math.Log2(1+cores)
	// d latency / d cores
	dldc := -l.Work/(cores*cores) + l.Shuffle/((1+cores)*math.Ln2)
	g[0] = dldc * (l.MaxExec - 1) * c
	g[1] = dldc * (l.MaxCores - 1) * e
	return val, g
}

// CoreCost is the paper's "resource cost in CPU cores" objective (§II-B
// objective 6) over the same encoding as Latency.
type CoreCost struct {
	D        int
	MaxExec  float64
	MaxCores float64
}

// Dim implements model.Model.
func (c CoreCost) Dim() int { return c.D }

// Predict implements model.Model.
func (c CoreCost) Predict(x []float64) float64 {
	return (1 + x[0]*(c.MaxExec-1)) * (1 + x[1]*(c.MaxCores-1))
}

// ValueGrad implements model.ValueGradienter.
func (c CoreCost) ValueGrad(x, grad []float64) (float64, []float64) {
	g := model.GradBuf(grad, c.D)
	for i := range g {
		g[i] = 0
	}
	e := 1 + x[0]*(c.MaxExec-1)
	cc := 1 + x[1]*(c.MaxCores-1)
	g[0] = (c.MaxExec - 1) * cc
	g[1] = (c.MaxCores - 1) * e
	return e * cc, g
}

// CPUHourCost is the paper's objective 7, resource cost in CPU-hours
// (latency × cores / 3600), composed from a latency model and a core count.
type CPUHourCost struct {
	Lat Latency
}

// Dim implements model.Model.
func (c CPUHourCost) Dim() int { return c.Lat.D }

// Predict implements model.Model.
func (c CPUHourCost) Predict(x []float64) float64 {
	return c.Lat.Predict(x) * c.Lat.Cores(x) / 3600
}

// PaperExample reproduces the toy functions of Fig. 3(e): univariate latency
// F1 = max(100, 2400/min(24, cores)) and cost F2 = min(24, cores), with
// cores = 1 + 23·x0. These are the models behind the running TPCx-BB Q2
// illustration and exercise the subgradient path of MOGD (max/min kinks).
func PaperExample() (lat, cost model.Model) {
	cores := func(x []float64) float64 { return 1 + 23*x[0] }
	lat = model.Func{D: 1, F: func(x []float64) float64 {
		return math.Max(100, 2400/math.Min(24, cores(x)))
	}}
	cost = model.Func{D: 1, F: func(x []float64) float64 {
		return math.Min(24, cores(x))
	}}
	return lat, cost
}

// PaperExample2D reproduces Fig. 3(f): bivariate latency and cost over
// x1 (#executors, 1..8 via x[0]) and x2 (#cores/executor, 1..3 via x[1]),
// F1 = max(100, 2400/min(24, x1·x2)) and F2 = min(24, x1·x2).
func PaperExample2D() (lat, cost model.Model) {
	cores := func(x []float64) float64 {
		return (1 + 7*x[0]) * (1 + 2*x[1])
	}
	lat = model.Func{D: 2, F: func(x []float64) float64 {
		return math.Max(100, 2400/math.Min(24, cores(x)))
	}}
	cost = model.Func{D: 2, F: func(x []float64) float64 {
		return math.Min(24, cores(x))
	}}
	return lat, cost
}

var (
	_ model.ValueGradienter = Latency{}
	_ model.ValueGradienter = CoreCost{}
	_ model.Model           = CPUHourCost{}
)

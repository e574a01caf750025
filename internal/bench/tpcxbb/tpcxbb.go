// Package tpcxbb provides a synthetic stand-in for the TPCx-BB benchmark
// [32] the paper evaluates on: 30 query templates — 14 pure SQL, 11 SQL with
// UDFs, and 5 ML tasks — parameterized into 258 workloads (58 offline, 200
// online), at a 100 GB scale factor (§VI "Batch Workloads").
//
// Substitution note (DESIGN.md): the licensed benchmark queries and its data
// generator are replaced by dataflow programs with the same operator mix and
// a latency spread of two orders of magnitude across workloads, which is the
// property the paper's normalization (Fig. 6) relies on. Template 2 mirrors
// the paper's running example, TPCx-BB Q2 (Fig. 1(b)): a
// scan–filter–project–exchange–sort–UDF–aggregate pipeline.
package tpcxbb

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/spark"
)

// NumTemplates is the TPCx-BB template count.
const NumTemplates = 30

// NumWorkloads is the parameterized workload count (58 offline + 200 online).
const NumWorkloads = 258

// TemplateKind labels the three TPCx-BB task families.
type TemplateKind int

// Template kinds.
const (
	SQL TemplateKind = iota
	SQLUDF
	ML
)

// String implements fmt.Stringer.
func (k TemplateKind) String() string {
	switch k {
	case SQL:
		return "SQL"
	case SQLUDF:
		return "SQL+UDF"
	default:
		return "ML"
	}
}

// Kind returns the family of template t (1-based): templates 1–14 are SQL,
// 15–25 SQL+UDF, 26–30 ML — matching the paper's 14/11/5 split.
func Kind(t int) TemplateKind {
	switch {
	case t <= 14:
		return SQL
	case t <= 25:
		return SQLUDF
	default:
		return ML
	}
}

// Template builds template t (1-based, 1..30) at the given input scale
// (rows of the fact table).
func Template(t int, inputRows float64) *spark.Dataflow {
	if t < 1 || t > NumTemplates {
		panic(fmt.Sprintf("tpcxbb: template %d out of range", t))
	}
	rng := rand.New(rand.NewSource(int64(t) * 7919))
	name := fmt.Sprintf("q%02d", t)
	rowBytes := 80 + float64(rng.Intn(120))

	switch Kind(t) {
	case SQL:
		return sqlTemplate(name, t, inputRows, rowBytes, rng)
	case SQLUDF:
		return udfTemplate(name, t, inputRows, rowBytes, rng)
	default:
		return mlTemplate(name, t, inputRows, rowBytes, rng)
	}
}

// sqlTemplate: scan → filter → project → exchange → (join) → aggregate →
// sort → limit chains with template-specific selectivities and costs.
func sqlTemplate(name string, t int, rows, rowBytes float64, rng *rand.Rand) *spark.Dataflow {
	sel := 0.05 + 0.5*rng.Float64()
	cpu := 0.4 + 1.2*rng.Float64()
	if t%3 == 0 {
		// A third of the SQL templates join against a dimension table.
		df := &spark.Dataflow{Name: name, InputRows: rows, RowBytes: rowBytes}
		df.Ops = []spark.Operator{
			{Kind: spark.OpScan, Selectivity: 1, CostPerRow: cpu},
			{Kind: spark.OpFilter, Selectivity: sel, CostPerRow: 0.2, Inputs: []int{0}},
			{Kind: spark.OpScan, Selectivity: 0.002 * rng.Float64()}, // dimension side
			{Kind: spark.OpJoin, Selectivity: 0.9, CostPerRow: 0.8, MemPerRow: 48, Inputs: []int{1, 2}},
			{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1, Inputs: []int{3}},
			{Kind: spark.OpAggregate, Selectivity: 0.01, CostPerRow: 0.6, MemPerRow: 64, Inputs: []int{4}},
			{Kind: spark.OpSort, Selectivity: 1, CostPerRow: 0.3, MemPerRow: 32, Inputs: []int{5}},
			{Kind: spark.OpLimit, Selectivity: 0.001, CostPerRow: 0.01, Inputs: []int{6}},
		}
		return df
	}
	return spark.Chain(name, rows, rowBytes,
		spark.Operator{Kind: spark.OpScan, Selectivity: 1, CostPerRow: cpu},
		spark.Operator{Kind: spark.OpFilter, Selectivity: sel, CostPerRow: 0.2},
		spark.Operator{Kind: spark.OpProject, Selectivity: 1, CostPerRow: 0.15},
		spark.Operator{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1},
		spark.Operator{Kind: spark.OpAggregate, Selectivity: 0.005 + 0.05*rng.Float64(), CostPerRow: 0.6, MemPerRow: 64},
		spark.Operator{Kind: spark.OpSort, Selectivity: 1, CostPerRow: 0.3, MemPerRow: 32},
	)
}

// udfTemplate mirrors TPCx-BB Q2's shape (Fig. 1(b)): the UDF script
// transformation dominates CPU.
func udfTemplate(name string, t int, rows, rowBytes float64, rng *rand.Rand) *spark.Dataflow {
	udfCost := 4 + 9*rng.Float64()
	return spark.Chain(name, rows, rowBytes,
		spark.Operator{Kind: spark.OpScan, Selectivity: 1, CostPerRow: 0.5},
		spark.Operator{Kind: spark.OpFilter, Selectivity: 0.4 + 0.4*rng.Float64(), CostPerRow: 0.2},
		spark.Operator{Kind: spark.OpProject, Selectivity: 1, CostPerRow: 0.15},
		spark.Operator{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1},
		spark.Operator{Kind: spark.OpSort, Selectivity: 1, CostPerRow: 0.3, MemPerRow: 40},
		spark.Operator{Kind: spark.OpUDF, Selectivity: 0.8, CostPerRow: udfCost, MemPerRow: 96},
		spark.Operator{Kind: spark.OpAggregate, Selectivity: 0.02, CostPerRow: 0.5, MemPerRow: 64},
		spark.Operator{Kind: spark.OpLimit, Selectivity: 0.01, CostPerRow: 0.01},
	)
}

// mlTemplate: feature extraction followed by an iterative trainer.
func mlTemplate(name string, t int, rows, rowBytes float64, rng *rand.Rand) *spark.Dataflow {
	iters := 8 + rng.Intn(12)
	return spark.Chain(name, rows, rowBytes,
		spark.Operator{Kind: spark.OpScan, Selectivity: 1, CostPerRow: 0.5},
		spark.Operator{Kind: spark.OpProject, Selectivity: 1, CostPerRow: 0.4},
		spark.Operator{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1},
		spark.Operator{Kind: spark.OpML, Selectivity: 0.001, CostPerRow: 1.5 + 2*rng.Float64(), MemPerRow: 160, Iterations: iters},
		spark.Operator{Kind: spark.OpAggregate, Selectivity: 1, CostPerRow: 0.2},
	)
}

// Workload identifies one parameterized instance of a template.
type Workload struct {
	Template int // 1..30
	Flow     *spark.Dataflow
}

// ByID returns workload id (0..257). The suite cycles the templates, and
// each instance scales the input size log-uniformly over ~1.5 orders of
// magnitude, yielding the paper's 2-orders-of-magnitude latency spread.
func ByID(id int) Workload {
	if id < 0 || id >= NumWorkloads {
		panic(fmt.Sprintf("tpcxbb: workload %d out of range", id))
	}
	tmpl := (id % NumTemplates) + 1
	rng := rand.New(rand.NewSource(int64(id)*104729 + 17))
	// Base cardinality per template family, scaled log-uniformly.
	base := 2.5e7
	switch Kind(tmpl) {
	case SQLUDF:
		base = 1.2e7
	case ML:
		base = 3e6
	}
	scale := math.Pow(10, -1+2.3*rng.Float64()) // 0.1x .. 20x
	rows := base * scale
	w := Workload{Template: tmpl, Flow: Template(tmpl, rows)}
	w.Flow.Name = fmt.Sprintf("%s-w%03d", w.Flow.Name, id)
	return w
}

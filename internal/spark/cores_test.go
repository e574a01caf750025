package spark

import (
	"testing"

	"repro/internal/model"
	"repro/internal/space"
)

// serverCores builds the cost-in-cores objective the way udao-server's main
// registers it: a model.Func closure over the space, built in a function the
// compiler may not inline into its caller, as main builds it.
//
//go:noinline
func serverCores(spc *space.Space) model.Func {
	return model.Func{D: spc.Dim(), F: func(x []float64) float64 {
		vals, err := spc.Decode(x)
		if err != nil {
			return 0
		}
		inst, _ := spc.Get(vals, KnobInstances)
		cores, _ := spc.Get(vals, KnobCores)
		return inst * cores
	}}
}

// TestCoresAllocationFree: the cores objective, as the library model and as
// the server's closure, returns instances × cores and allocates nothing per
// evaluation. Space.Decode inlines into both, so the decoded knobs stay on
// the stack; MOGD's numeric gradient evaluates the objective 2·D+1 times per
// start per step.
func TestCoresAllocationFree(t *testing.T) {
	spc := BatchSpace()
	x := make([]float64, spc.Dim())
	for d := range x {
		x[d] = float64(d%5) / 4
	}
	vals, err := spc.Decode(x)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(vals[spc.Lookup(KnobInstances)] * vals[spc.Lookup(KnobCores)])
	for name, m := range map[string]model.Model{
		"CoresModel":     CoresModel(spc),
		"server closure": serverCores(spc),
	} {
		var got float64
		if a := testing.AllocsPerRun(100, func() { got = m.Predict(x) }); a != 0 {
			t.Errorf("%s: Predict allocates %.1f/op, want 0", name, a)
		}
		if got != want {
			t.Errorf("%s: Predict = %v, want instances × cores = %v", name, got, want)
		}
	}
}

var coresSink float64

// BenchmarkCoresValueGrad measures the cores objective's value and numeric
// gradient over the 12-knob batch space, as MOGD computes them each Adam
// step for each start: 2·12 difference probes plus the value, 25 decodes.
func BenchmarkCoresValueGrad(b *testing.B) {
	spc := BatchSpace()
	m := model.EnsureValueGrad(CoresModel(spc))
	x := make([]float64, spc.Dim())
	for d := range x {
		x[d] = 0.5
	}
	grad := make([]float64, spc.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coresSink, _ = m.ValueGrad(x, grad)
	}
}

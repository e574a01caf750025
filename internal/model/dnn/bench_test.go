package dnn

import "testing"

// benchNet builds the paper's largest model shape (4×128 ReLU) over a
// 12-knob input — the configuration MOGD hammers hardest (§VI-C).
func benchNet() *Net {
	return New(12, Config{Hidden: []int{128, 128, 128, 128}, Seed: 1})
}

func benchInput(d int) []float64 {
	x := make([]float64, d)
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	return x
}

func BenchmarkPredict(b *testing.B) {
	n := benchNet()
	x := benchInput(n.InDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Predict(x)
	}
}

func BenchmarkValueGrad(b *testing.B) {
	n := benchNet()
	x := benchInput(n.InDim)
	grad := make([]float64, n.InDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ValueGrad(x, grad)
	}
}

func BenchmarkPredictVar(b *testing.B) {
	n := benchNet()
	x := benchInput(n.InDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.PredictVar(x)
	}
}

// BenchmarkPredictVar2x64 is PredictVar at the server's model shape: the
// default 2×64 network over 12 knobs, 16 MC-dropout samples.
func BenchmarkPredictVar2x64(b *testing.B) {
	n := New(12, Config{Seed: 1})
	x := benchInput(n.InDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.PredictVar(x)
	}
}

// BenchmarkFit trains a fresh net at the server's training shape (12→64→64→1,
// 60 samples, 200 epochs, batch 32), as a cold DNN request does per model.
func BenchmarkFit(b *testing.B) {
	X, y := refData(60, 12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(12, Config{Seed: 1}).Fit(X, y)
	}
}

package gp

import (
	"math/rand"
	"testing"
)

// BenchmarkGPFit trains a GP at the model server's shape: 60 traces of 12
// knobs and the default Config's 80 MLE steps.
func BenchmarkGPFit(b *testing.B) {
	X, y := gpData(rand.New(rand.NewSource(1)), 60, 12, false, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

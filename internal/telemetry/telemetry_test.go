package telemetry

import (
	"strings"
	"testing"
)

// FuzzLabelValue checks that every label value Labeled and Labeled2 write
// reads back unchanged, whatever characters it holds, and that the label
// block holds only the escapes Prometheus text format defines.
func FuzzLabelValue(f *testing.F) {
	for _, s := range [][2]string{
		{"q1", "latency"}, {"etl,ml", "cores"}, {`a"b`, `c\d`},
		{"", "x=y"}, {"pipe ok", "}{"}, {"\xff\n", "é"}, {"a\tb", `\t`},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, ok := LabelValue(Labeled(MetricSolveLatency, "workload", a), "workload"); !ok || got != a {
			t.Fatalf("Labeled: got %q, %v; want %q", got, ok, a)
		}
		series := Labeled2(MetricCalibMAPE, "workload", a, "objective", b)
		block := series[len(MetricCalibMAPE):]
		if strings.ContainsRune(block, '\n') {
			t.Fatalf("raw line feed in %q", series)
		}
		for i := 0; i < len(block); i++ {
			if block[i] != '\\' {
				continue
			}
			if i++; i == len(block) || !strings.ContainsRune(`\"n`, rune(block[i])) {
				t.Fatalf("backslash at %d starts no Prometheus escape in %q", i-1, series)
			}
		}
		if got, ok := LabelValue(series, "workload"); !ok || got != a {
			t.Fatalf("Labeled2 workload: got %q, %v; want %q", got, ok, a)
		}
		if got, ok := LabelValue(series, "objective"); !ok || got != b {
			t.Fatalf("Labeled2 objective: got %q, %v; want %q", got, ok, b)
		}
		if _, ok := LabelValue(series, "reason"); ok {
			t.Fatalf("absent label found in %q", series)
		}
	})
}

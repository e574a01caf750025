package telemetry

import "testing"

// FuzzLabelValue checks that every label value Labeled and Labeled2 write
// reads back unchanged, whatever characters it holds.
func FuzzLabelValue(f *testing.F) {
	for _, s := range [][2]string{
		{"q1", "latency"}, {"etl,ml", "cores"}, {`a"b`, `c\d`},
		{"", "x=y"}, {"pipe ok", "}{"}, {"\xff\n", "é"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, ok := LabelValue(Labeled(MetricSolveLatency, "workload", a), "workload"); !ok || got != a {
			t.Fatalf("Labeled: got %q, %v; want %q", got, ok, a)
		}
		series := Labeled2(MetricCalibMAPE, "workload", a, "objective", b)
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

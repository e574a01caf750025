package tpcxbb

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/spark"
)

func TestTemplateFamilies(t *testing.T) {
	counts := map[TemplateKind]int{}
	for i := 1; i <= NumTemplates; i++ {
		counts[Kind(i)]++
	}
	if counts[SQL] != 14 || counts[SQLUDF] != 11 || counts[ML] != 5 {
		t.Fatalf("family split = %v, want 14/11/5", counts)
	}
	if SQL.String() != "SQL" || SQLUDF.String() != "SQL+UDF" || ML.String() != "ML" {
		t.Fatal("kind names wrong")
	}
}

func TestAllTemplatesValidate(t *testing.T) {
	for i := 1; i <= NumTemplates; i++ {
		df := Template(i, 1e6)
		if err := df.Validate(); err != nil {
			t.Fatalf("template %d invalid: %v", i, err)
		}
	}
}

func TestTemplateOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Template(0, 1e6)
}

func TestWorkloadSuite(t *testing.T) {
	for i := 0; i < NumWorkloads; i++ {
		w := ByID(i)
		if suffix := fmt.Sprintf("-w%03d", i); !strings.HasSuffix(w.Flow.Name, suffix) {
			t.Fatalf("workload %d is named %q, want the suffix %q", i, w.Flow.Name, suffix)
		}
		if err := w.Flow.Validate(); err != nil {
			t.Fatalf("workload %d invalid: %v", i, err)
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	a := ByID(42)
	b := ByID(42)
	if a.Flow.InputRows != b.Flow.InputRows || a.Template != b.Template {
		t.Fatal("workload generation not deterministic")
	}
}

func TestByIDPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ByID(NumWorkloads)
}

// TestLatencySpread verifies the 2-orders-of-magnitude latency spread the
// paper reports for TPCx-BB workloads ("TPCx-BB workloads have 2 orders of
// magnitude difference in latency", Expt 3).
func TestLatencySpread(t *testing.T) {
	spc := spark.BatchSpace()
	conf := spark.DefaultBatchConf(spc)
	cl := spark.DefaultCluster()
	var lats []float64
	for id := 0; id < NumWorkloads; id += 4 {
		w := ByID(id)
		m, err := spark.Run(w.Flow, spc, conf, cl, 7)
		if err != nil {
			t.Fatalf("workload %d: %v", id, err)
		}
		lats = append(lats, m.LatencySec)
	}
	sort.Float64s(lats)
	lo, hi := lats[0], lats[len(lats)-1]
	if ratio := hi / lo; ratio < 30 {
		t.Fatalf("latency spread %.1fx (%.1fs..%.1fs), want >= 30x", ratio, lo, hi)
	}
	if hi > 3600 {
		t.Fatalf("slowest workload unreasonably slow: %v s", hi)
	}
}

// TestUDFTemplatesSlower: UDF and ML workloads are CPU-heavier than plain
// SQL at the same input size.
func TestFamilyCostOrdering(t *testing.T) {
	spc := spark.BatchSpace()
	conf := spark.DefaultBatchConf(spc)
	cl := spark.DefaultCluster()
	cl.NoiseStd = 1e-12
	mean := func(kind TemplateKind) float64 {
		sum, n := 0.0, 0
		for i := 1; i <= NumTemplates; i++ {
			if Kind(i) != kind {
				continue
			}
			m, err := spark.Run(Template(i, 1e6), spc, conf, cl, 1)
			if err != nil {
				t.Fatal(err)
			}
			sum += m.LatencySec
			n++
		}
		return sum / float64(n)
	}
	sql, udf := mean(SQL), mean(SQLUDF)
	if udf <= sql {
		t.Fatalf("UDF templates should be slower on average: SQL %v, UDF %v", sql, udf)
	}
}

func TestScaleMonotonic(t *testing.T) {
	spc := spark.BatchSpace()
	conf := spark.DefaultBatchConf(spc)
	cl := spark.DefaultCluster()
	cl.NoiseStd = 1e-12
	small, _ := spark.Run(Template(2, 1e5), spc, conf, cl, 1)
	big, _ := spark.Run(Template(2, 1e7), spc, conf, cl, 1)
	if big.LatencySec <= small.LatencySec {
		t.Fatalf("bigger input should be slower: %v vs %v", small.LatencySec, big.LatencySec)
	}
	if math.IsNaN(big.LatencySec) {
		t.Fatal("NaN latency")
	}
}

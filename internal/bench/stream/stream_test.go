package stream

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/space"
	"repro/internal/spark"
)

func runWith(t *testing.T, w Template, mutate func(*space.Space, space.Values)) Metrics {
	t.Helper()
	spc := spark.StreamSpace()
	conf := spark.DefaultStreamConf(spc)
	if mutate != nil {
		mutate(spc, conf)
	}
	cl := spark.DefaultCluster()
	cl.NoiseStd = 1e-12
	m, err := Run(w, spc, conf, cl, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func set(t *testing.T, spc *space.Space, conf space.Values, name string, v float64) {
	t.Helper()
	i := spc.Lookup(name)
	if i < 0 {
		t.Fatalf("unknown knob %s", name)
	}
	conf[i] = space.Value(v)
}

func TestSuite(t *testing.T) {
	if len(Templates()) != NumTemplates {
		t.Fatalf("templates = %d", len(Templates()))
	}
	for i := 0; i < NumWorkloads; i++ {
		if w, suffix := ByID(i), fmt.Sprintf("-w%02d", i); !strings.HasSuffix(w.Name, suffix) {
			t.Fatalf("workload %d is named %q, want the suffix %q", i, w.Name, suffix)
		}
	}
	// Determinism of generation.
	if ByID(7).CPUPerRecord != ByID(7).CPUPerRecord {
		t.Fatal("workload generation not deterministic")
	}
}

func TestByIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ByID(-1)
}

func TestStableRegime(t *testing.T) {
	w := ByID(2) // light top-k workload
	m := runWith(t, w, func(s *space.Space, c space.Values) {
		set(t, s, c, spark.KnobInputRate, 20_000)
		set(t, s, c, spark.KnobInstances, 8)
		set(t, s, c, spark.KnobCores, 4)
	})
	if !m.Stable {
		t.Fatalf("light load should be stable: %+v", m)
	}
	if m.Throughput != 20_000 {
		t.Fatalf("stable throughput = %v, want the input rate", m.Throughput)
	}
	// Latency at least half the batch interval.
	if m.LatencySec < 2.5 {
		t.Fatalf("latency %v below the buffering floor", m.LatencySec)
	}
}

func TestOverloadDegrades(t *testing.T) {
	w := ByID(5) // heavy ML workload
	m := runWith(t, w, func(s *space.Space, c space.Values) {
		set(t, s, c, spark.KnobInputRate, 2_000_000)
		set(t, s, c, spark.KnobInstances, 2)
		set(t, s, c, spark.KnobCores, 1)
	})
	if m.Stable {
		t.Fatal("2M rec/s on 2 cores should be unstable")
	}
	if m.Throughput >= 2_000_000 {
		t.Fatalf("unstable throughput %v should fall below the input rate", m.Throughput)
	}
	stableM := runWith(t, w, func(s *space.Space, c space.Values) {
		set(t, s, c, spark.KnobInputRate, 20_000)
		set(t, s, c, spark.KnobInstances, 14)
		set(t, s, c, spark.KnobCores, 4)
	})
	if m.LatencySec <= stableM.LatencySec {
		t.Fatalf("overload latency %v should exceed stable latency %v", m.LatencySec, stableM.LatencySec)
	}
}

// TestLatencyThroughputConflict: pushing throughput up (higher input rate)
// raises latency — the genuine 2D tradeoff of Expt 2.
func TestLatencyThroughputConflict(t *testing.T) {
	w := ByID(0)
	lowRate := runWith(t, w, func(s *space.Space, c space.Values) {
		set(t, s, c, spark.KnobInputRate, 50_000)
	})
	highRate := runWith(t, w, func(s *space.Space, c space.Values) {
		set(t, s, c, spark.KnobInputRate, 1_500_000)
	})
	if highRate.Throughput <= lowRate.Throughput {
		t.Fatalf("throughput should rise with rate: %v vs %v", lowRate.Throughput, highRate.Throughput)
	}
	if highRate.LatencySec <= lowRate.LatencySec {
		t.Fatalf("latency should rise with rate: %v vs %v", lowRate.LatencySec, highRate.LatencySec)
	}
}

func TestBatchIntervalTradeoff(t *testing.T) {
	// Small intervals reduce buffering latency while stable, but a
	// too-small interval cannot fit the per-batch overheads and destabilizes.
	w := ByID(3)
	lat := func(interval float64) Metrics {
		return runWith(t, w, func(s *space.Space, c space.Values) {
			set(t, s, c, spark.KnobBatchInterval, interval)
			set(t, s, c, spark.KnobInputRate, 400_000)
			set(t, s, c, spark.KnobInstances, 6)
			set(t, s, c, spark.KnobCores, 4)
		})
	}
	long := lat(20)
	mid := lat(6)
	if !long.Stable || !mid.Stable {
		t.Fatalf("expected stability at 6s and 20s intervals: %+v %+v", mid, long)
	}
	if mid.LatencySec >= long.LatencySec {
		t.Fatalf("shorter stable interval should cut latency: %v vs %v", mid.LatencySec, long.LatencySec)
	}
	short := lat(1)
	if short.Stable && short.LatencySec < mid.LatencySec*0.3 {
		t.Log("1s interval unexpectedly comfortable; model may need steeper overheads")
	}
}

func TestMoreCoresRaiseCapacity(t *testing.T) {
	w := ByID(4)
	small := runWith(t, w, func(s *space.Space, c space.Values) {
		set(t, s, c, spark.KnobInputRate, 800_000)
		set(t, s, c, spark.KnobInstances, 2)
		set(t, s, c, spark.KnobCores, 1)
	})
	big := runWith(t, w, func(s *space.Space, c space.Values) {
		set(t, s, c, spark.KnobInputRate, 800_000)
		set(t, s, c, spark.KnobInstances, 14)
		set(t, s, c, spark.KnobCores, 4)
	})
	if big.ProcSec >= small.ProcSec {
		t.Fatalf("more cores should cut processing time: %v vs %v", small.ProcSec, big.ProcSec)
	}
	if big.Cores != 56 {
		t.Fatalf("cores = %v", big.Cores)
	}
}

func TestInvalidConfig(t *testing.T) {
	w := ByID(0)
	spc := space.MustNew([]space.Var{{Name: spark.KnobBatchInterval, Kind: space.Continuous, Min: -5, Max: 0}})
	conf := space.Values{-1}
	if _, err := Run(w, spc, conf, spark.DefaultCluster(), 1); err == nil {
		t.Fatal("expected error for non-positive interval")
	}
}

func TestTraceVector(t *testing.T) {
	m := runWith(t, ByID(1), nil)
	if len(m.TraceVector()) != 7 {
		t.Fatalf("trace vector = %d entries", len(m.TraceVector()))
	}
}

// TestRunWellFormedOnRandomConfigs: any valid configuration yields finite,
// self-consistent streaming metrics.
func TestRunWellFormedOnRandomConfigs(t *testing.T) {
	spc := spark.StreamSpace()
	cl := spark.DefaultCluster()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, spc.Dim())
		for d := range x {
			x[d] = rng.Float64()
		}
		conf, err := spc.Decode(x)
		if err != nil {
			return false
		}
		w := ByID(int(uint64(seed) % NumWorkloads))
		m, err := Run(w, spc, conf, cl, seed)
		if err != nil {
			return false
		}
		if !(m.LatencySec > 0) || math.IsNaN(m.LatencySec) || math.IsInf(m.LatencySec, 0) {
			return false
		}
		if m.Throughput <= 0 || m.ProcSec <= 0 {
			return false
		}
		rate, _ := spc.Get(conf, spark.KnobInputRate)
		if m.Throughput > rate+1e-6 {
			return false // cannot emit more than arrives
		}
		if m.Stable != (m.Throughput == rate) {
			return false // stable iff the full input rate is sustained
		}
		interval, _ := spc.Get(conf, spark.KnobBatchInterval)
		if m.LatencySec < interval/2 {
			return false // buffering floor
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/service"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5}, 0.5, 5},
		{[]float64{5}, 0.9, 5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{[]float64{10, 20}, 0.9, 19},
		{[]float64{2, 1}, 0, 1},
		{[]float64{2, 1}, 1, 2},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		got, n := Percentile(c.xs, c.q)
		if math.Abs(got-c.want) > 1e-12 || n != len(c.xs) {
			t.Errorf("Percentile(%v, %v) = %v, %d; want %v, %d", c.xs, c.q, got, n, c.want, len(c.xs))
		}
		if !reflect.DeepEqual(in, c.xs) {
			t.Errorf("Percentile reordered its input: %v", c.xs)
		}
	}
	if v, n := Percentile(nil, 0.5); !math.IsNaN(v) || n != 0 {
		t.Errorf("Percentile(nil) = %v, %d; want NaN, 0", v, n)
	}
	if m := Mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("Mean = %v, want 3", m)
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{{100, 10}, {4000, 400}, {99, 9}, {10, 1}, {0, 0}} {
		if got := Beyond(c.n, 0.9); got != c.want {
			t.Errorf("Beyond(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestProcCPU(t *testing.T) {
	// The command name holds a space and a parenthesis; utime 1234 and
	// stime 56 are fields 14 and 15.
	stat := "4242 (udao server) x) S 1 4242 4242 0 -1 4194560 2170 0 0 0 1234 56 0 0 20 0 9 0 123456 1605512 14282 18446744073709551615"
	got, err := ProcCPU(stat)
	if err != nil || got != 1290 {
		t.Fatalf("ProcCPU = %d, %v; want 1290", got, err)
	}
	for _, bad := range []string{"", "4242 udao S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 4242 4242 0 -1 4194560 2170 0 0 0 abc 56 0"} {
		if _, err := ProcCPU(bad); err == nil {
			t.Errorf("ProcCPU(%q): want an error", bad)
		}
	}
}

func TestProcHWM(t *testing.T) {
	status := "Name:\tudao-server\nVmPeak:\t 1605512 kB\nVmHWM:\t   57128 kB\nVmRSS:\t   51200 kB\n"
	got, err := ProcHWM(status)
	if err != nil || got != 57128 {
		t.Fatalf("ProcHWM = %d, %v; want 57128", got, err)
	}
	if _, err := ProcHWM("VmRSS:\t 1 kB\n"); err == nil {
		t.Error("ProcHWM without a VmHWM line: want an error")
	}
	if _, err := ProcHWM("VmHWM:\t 12 MB\n"); err == nil {
		t.Error("ProcHWM with a unit other than kB: want an error")
	}
}

func TestSystemCPU(t *testing.T) {
	a, err := SystemCPU("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 3 0\nintr 1\n")
	if err != nil {
		t.Fatal(err)
	}
	// Guest (7) is already part of user time, so only user..steal count.
	if a.Total != 1000 || a.Steal != 35 {
		t.Fatalf("SystemCPU = %+v; want total 1000, steal 35", a)
	}
	b, err := SystemCPU("cpu  150 0 60 860 10 0 5 55 7 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f := StealFrac(a, b); math.Abs(f-20.0/140) > 1e-12 {
		t.Errorf("StealFrac = %v, want 20/140", f)
	}
	if f := StealFrac(b, b); f != 0 {
		t.Errorf("StealFrac over no time = %v, want 0", f)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8\n", "cpu  1 2 3\n", "cpu  1 2 3 4 5 6 7 x\n"} {
		if _, err := SystemCPU(bad); err == nil {
			t.Errorf("SystemCPU(%q): want an error", bad)
		}
	}
}

func TestDeckIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := BuildDeck(w, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := BuildDeck(w, 7, 10)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two decks for seed 7 differ", w)
		}
		c, _ := BuildDeck(w, 8, 10)
		if reflect.DeepEqual(a.Requests(), c.Requests()) {
			t.Errorf("%s: seeds 7 and 8 give the same requests", w)
		}
		for i, r := range a.Requests() {
			if r.ID != i {
				t.Fatalf("%s: request %d has ID %d", w, i, r.ID)
			}
			if r.Body.Probes < 1 || r.Body.Probes > setupProbes {
				t.Errorf("%s: request %d asks for %d probes", w, i, r.Body.Probes)
			}
			if len(r.Body.Weights) != 2 || r.Body.Weights[0] <= 0 || r.Body.Weights[1] <= 0 {
				t.Errorf("%s: request %d has weights %v", w, i, r.Body.Weights)
			}
		}
	}
	if _, err := BuildDeck("nope", 1, 10); err == nil {
		t.Error("unknown workload: want an error")
	}
	if _, err := BuildDeck(hotHits, 1, 0); err == nil {
		t.Error("zero seconds: want an error")
	}
}

func TestDeckShapes(t *testing.T) {
	hot, _ := BuildDeck(hotHits, 3, 10)
	if len(hot.Measure) != 1 || len(hot.Warmup) != 1 {
		t.Fatalf("hot-hits drives %d connections, want 1", len(hot.Measure))
	}
	if got := len(hot.Measure[0]); got != hotHitsPerSec*10 {
		t.Errorf("hot-hits measures %d requests, want %d", got, hotHitsPerSec*10)
	}
	for _, r := range append(hot.Measure[0], hot.Warmup[0]...) {
		if r.Want != "hit" {
			t.Fatalf("hot-hits request %d wants %q", r.ID, r.Want)
		}
	}

	mixed, _ := BuildDeck(mixedPipeline, 3, 10)
	labels := map[string]bool{}
	pairs := map[string]int{}
	for _, r := range mixed.Measure[0] {
		if r.Want != "solve" || len(r.Body.Stages) != 2 || len(r.Body.SharedKnobs) != len(sharedKnobs) {
			t.Fatalf("mixed-pipeline job %d is not a shared-knob two-stage solve: %+v", r.ID, r.Body)
		}
		if labels[r.Body.Workload] {
			t.Errorf("job label %q repeats", r.Body.Workload)
		}
		labels[r.Body.Workload] = true
		pairs[strings.Join(r.Body.Stages, ">")]++
	}
	if len(pairs) != 4 {
		t.Errorf("jobs use stage pairs %v, want all four ordered pairs", pairs)
	}
	var observes int
	for _, r := range mixed.Measure[1] {
		if r.Observe {
			observes++
		}
	}
	if observes != len(mixed.Measure[1])/4 {
		t.Errorf("%d observes over %d hits, want every fourth", observes, len(mixed.Measure[1]))
	}

	cold, _ := BuildDeck(coldDNN, 3, 10)
	seen := map[string]bool{}
	for _, r := range append(cold.Warmup[0], cold.Measure[0]...) {
		if r.Want != "solve" || seen[r.Body.Workload] {
			t.Fatalf("cold-dnn request %d (%s) is not the first for its workload", r.ID, r.Body.Workload)
		}
		seen[r.Body.Workload] = true
		if r.Body.Workload == flatA || r.Body.Workload == flatB {
			t.Errorf("cold-dnn uses hit-path workload %s", r.Body.Workload)
		}
	}
	if !strings.HasPrefix(cold.ServerArgs[1], "-workloads=") || strings.Count(cold.ServerArgs[1], ",")+1 != len(seen) {
		t.Errorf("cold-dnn server args %v do not load exactly its %d workloads", cold.ServerArgs, len(seen))
	}
	// The probe runs on the last server, so it may only repeat its solves.
	last := map[string]bool{}
	for _, r := range append(cold.Warmup[0], cold.part(cold.servers() - 1)[0]...) {
		last[r.Body.Workload] = true
	}
	for _, r := range cold.ProbeHits {
		if r.Want != "hit" || !last[r.Body.Workload] {
			t.Errorf("probe hit %d for %s is not a repeat of a solve on the last server", r.ID, r.Body.Workload)
		}
	}
}

func TestDeckPartsCoverTheMeasuredPhase(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []int{1, 10} {
			d, _ := BuildDeck(w, 5, seconds)
			for c, list := range d.Measure {
				var joined []Req
				for i := 0; i < d.servers(); i++ {
					p := d.part(i)[c]
					if len(p) == 0 {
						t.Errorf("%s, %d s: server %d gets no requests on connection %d", w, seconds, i, c)
					}
					joined = append(joined, p...)
				}
				if !reflect.DeepEqual(joined, list) {
					t.Errorf("%s, %d s: the servers' parts of connection %d do not make up its list", w, seconds, c)
				}
			}
		}
	}
}

func validAnswer() *service.OptimizeResponse {
	conf := map[string]float64{}
	for k, b := range knobs {
		conf[k] = b[0]
	}
	return &service.OptimizeResponse{Config: conf, Objectives: map[string]float64{"latency": 3, "cores": 4}, UncertainSpace: 0.1, Served: "hit"}
}

func TestCheckAnswer(t *testing.T) {
	flat := Req{Body: service.OptimizeRequest{Workload: flatA}, Want: "hit"}
	if err := CheckAnswer(flat, validAnswer()); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	bad := map[string]func(*service.OptimizeResponse){
		"disposition": func(r *service.OptimizeResponse) { r.Served = "solve" },
		"uncertain":   func(r *service.OptimizeResponse) { r.UncertainSpace = 1.5 },
		"bounds":      func(r *service.OptimizeResponse) { r.Config["spark.executor.cores"] = 9 },
		"unknown":     func(r *service.OptimizeResponse) { r.Config["spark.nope"] = 1 },
		"objective":   func(r *service.OptimizeResponse) { r.Objectives["latency"] = math.NaN() },
		"stages":      func(r *service.OptimizeResponse) { r.StageConfigs = map[string]map[string]float64{} },
	}
	for name, mutate := range bad {
		a := validAnswer()
		mutate(a)
		if err := CheckAnswer(flat, a); err == nil {
			t.Errorf("%s: bad answer accepted", name)
		}
	}

	pipe := Req{Body: pipelineReq(pipeName, []string{flatA, flatB}, 30, []float64{0.5, 0.5}), Want: "solve"}
	a := validAnswer()
	a.Served = "solve"
	if err := CheckAnswer(pipe, a); err == nil {
		t.Error("pipeline answer without stage_configs accepted")
	}
	a.Config = map[string]float64{}
	a.StageConfigs = map[string]map[string]float64{}
	for _, st := range []string{flatA, flatB} {
		a.StageConfigs[st] = map[string]float64{}
		for k, b := range knobs {
			a.StageConfigs[st][k] = b[1]
			if !contains(sharedKnobs, k) {
				a.Config[st+"."+k] = b[1]
			}
		}
	}
	for _, k := range sharedKnobs {
		a.Config[k] = knobs[k][1]
	}
	if err := CheckAnswer(pipe, a); err != nil {
		t.Errorf("valid pipeline answer rejected: %v", err)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestDigest(t *testing.T) {
	a, b := validAnswer(), validAnswer()
	b.ModelEvals, b.RunRecord, b.Served = 99, "run-000002", "solve"
	if Digest(a) != Digest(b) {
		t.Error("digest depends on fields outside config, objectives, stage configs and uncertain space")
	}
	b.Config["spark.executor.cores"]++
	if Digest(a) == Digest(b) {
		t.Error("digest ignores the configuration")
	}
}

func TestStoredDigests(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d", "hot-hits-s1-t10.json")
	first := &RunResult{Digests: map[int]string{0: "aa", 1: "bb"}}
	if err := checkStoredDigests(path, first); err != nil || first.Failed != 0 {
		t.Fatalf("storing digests: %v, failed %d", err, first.Failed)
	}
	same := &RunResult{Digests: map[int]string{0: "aa", 1: "bb"}}
	if err := checkStoredDigests(path, same); err != nil || same.Failed != 0 || same.FirstErr != nil {
		t.Fatalf("identical digests flagged: %v, failed %d, %v", err, same.Failed, same.FirstErr)
	}
	diff := &RunResult{Digests: map[int]string{0: "aa", 1: "cc"}}
	if err := checkStoredDigests(path, diff); err != nil || diff.Failed != 1 || diff.FirstErr == nil {
		t.Fatalf("changed digest not flagged: %v, failed %d", err, diff.Failed)
	}
}

func TestStoredDigestsKeyedByProgram(t *testing.T) {
	dir := t.TempDir()
	d, err := BuildDeck(hotHits, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	parent, change := digestStorePath(dir, "aaaa", d), digestStorePath(dir, "bbbb", d)
	if parent == change {
		t.Fatalf("two programs share the digest store %s", parent)
	}
	first := &RunResult{Digests: map[int]string{0: "aa"}}
	if err := checkStoredDigests(parent, first); err != nil || first.Failed != 0 {
		t.Fatalf("storing digests: %v, failed %d", err, first.Failed)
	}
	// Another program may answer differently: its answers start a store of
	// their own instead of being compared with the first program's.
	other := &RunResult{Digests: map[int]string{0: "zz"}}
	if err := checkStoredDigests(change, other); err != nil || other.Failed != 0 || other.FirstErr != nil {
		t.Fatalf("another program's answers compared with the first's: %v, failed %d, %v", err, other.Failed, other.FirstErr)
	}
	again := &RunResult{Digests: map[int]string{0: "zz"}}
	if err := checkStoredDigests(parent, again); err != nil || again.Failed != 1 {
		t.Fatalf("the same program's changed answer not flagged: %v, failed %d", err, again.Failed)
	}
}

package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"

	"repro/internal/modelserver"
	"repro/internal/serving"
)

// spec is the part of BENCHMARK.json these tests hold the code to.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames verifies a run reports exactly the metrics BENCHMARK.json
// lists, with the same units, under valid names.
func checkNames(t *testing.T, kind string, got map[string]Metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("%s metric %q is not a valid name", kind, name)
		}
		unit, ok := want[name]
		if !ok {
			t.Errorf("%s metric %q is not in BENCHMARK.json", kind, name)
		} else if unit != m.Unit {
			t.Errorf("%s metric %q has unit %q, BENCHMARK.json says %q", kind, name, m.Unit, unit)
		}
	}
	var missing []string
	for name := range want {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%s metrics missing from a run: %v", kind, missing)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloads)
	}
	for i := range names {
		if i < len(workloads) && names[i] != workloads[i] {
			t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloads)
		}
	}

	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layer := map[string]string{}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	run := &RunResult{SetupSec: []float64{1}, MeasWall: 1}
	checkNames(t, "end-to-end", endToEnd(run), e2e)
	tr := &TracedResult{Run: &RunResult{}, Hosts: []*tracedHost{{cache: serving.NewCache(serving.Config{}), kind: modelserver.GP}}}
	checkNames(t, "per-layer", perLayer(run, tr), layer)
}

package calib

import (
	"slices"
	"strings"
)

// Summarize replays a recorded pair stream through the rolling-window
// calibration machinery offline — the same stats a live ledger serves over
// GET /workloads/{name}/calibration, recomputed from the persisted
// predictions and outcomes. This is the analysis path of udao-traceview
// calib: Load the ledger, Summarize the pairs, no server required. Stats are
// keyed by workload and sorted by objective; window and z default like a
// live ledger when zero.
func Summarize(pairs []Pair, window int, z float64) map[string][]ObjectiveStats {
	if window <= 0 {
		window = DefaultWindow
	}
	if z <= 0 {
		z = DefaultZ
	}
	byKey := map[string]*series{}
	var names []string
	for i := range pairs {
		p := &pairs[i]
		names = joinedObjectives(p, names)
		for _, name := range names {
			key := p.Workload + "\x00" + name
			s := byKey[key]
			if s == nil {
				s = newSeries(p.Workload, name, window, nil)
				byKey[key] = s
			}
			s.add(score(p, name, z), p.Run)
		}
	}
	out := map[string][]ObjectiveStats{}
	for _, s := range byKey {
		out[s.workload] = append(out[s.workload], s.stats)
	}
	for _, sts := range out {
		slices.SortFunc(sts, func(a, b ObjectiveStats) int {
			return strings.Compare(a.Objective, b.Objective)
		})
	}
	return out
}

package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/bench/tpcxbb"
	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/ottertune"
	"repro/internal/recommend"
	"repro/internal/space"
	"repro/internal/trace"
)

// E2ERow is one workload's end-to-end comparison between UDAO (PF + WUN) and
// OtterTune (Expts 3–5, Fig. 6 and Fig. 9).
type E2ERow struct {
	Workload string
	// Model-predicted (latency, cost) at the recommendations.
	UdaoPred, OtterPred objective.Point
	// Measured (latency, cost) on the simulator.
	UdaoActual, OtterActual objective.Point
	// ExpertActual is the manual expert configuration's measurement.
	ExpertActual objective.Point
}

// historyFor assembles OtterTune's historical traces: the three sibling
// workloads of the target's template at other scales (the "past queries" its
// workload mapping searches).
func (l *Lab) historyFor(id int, kind ModelKind, useCost2 bool) (*trace.Store, error) {
	st := trace.NewStore()
	for k := 1; k <= 3; k++ {
		sib := (id + 30*k) % tpcxbb.NumWorkloads
		setup, err := l.BatchSetup(sib, kind, useCost2)
		if err != nil {
			return nil, err
		}
		for _, e := range setup.Entries {
			st.Add(e)
		}
	}
	return st, nil
}

// udaoRecommend runs PF-AP over the setup's models and picks a plan with
// workload-aware WUN.
func (l *Lab) udaoRecommend(setup *Setup, weights [2]float64, class recommend.WorkloadClass, seed int64) (space.Values, objective.Point, error) {
	front, err := setup.pf(true, 30, 0, core.Options{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	sol, err := recommend.WorkloadAwareWUN(front, weights[:], class)
	if err != nil {
		return nil, nil, err
	}
	conf, err := setup.Space.Decode(sol.X)
	if err != nil {
		return nil, nil, err
	}
	return conf, sol.F, nil
}

// EndToEnd runs Expt 3/4's per-workload comparison: UDAO with kind-model
// objectives vs OtterTune with GP models, both asked for the same weighted
// preference, then measured on the simulator.
func (l *Lab) EndToEnd(ids []int, kind ModelKind, useCost2 bool, weights [2]float64, seed int64) ([]E2ERow, error) {
	rows := make([]E2ERow, 0, len(ids))
	for _, id := range ids {
		setup, err := l.BatchSetup(id, kind, useCost2)
		if err != nil {
			return nil, err
		}
		// Workload class from the default-configuration latency.
		defPoint, err := setup.Measure(setup.DefaultConf)
		if err != nil {
			return nil, err
		}
		class := recommend.Classify(defPoint[0], 10, 60)

		udaoConf, udaoPred, err := l.udaoRecommend(setup, weights, class, seed+int64(id))
		if err != nil {
			return nil, err
		}

		// OtterTune: GP models over mapped history + 10 target observations.
		hist, err := l.historyFor(id, KindGP, useCost2)
		if err != nil {
			return nil, err
		}
		obs := setup.Entries
		if len(obs) > 10 {
			obs = obs[:10]
		}
		tuner := &ottertune.Tuner{Spc: setup.Space, History: hist, GPCfg: l.GPCfg, Candidates: 1024, Seed: seed + int64(id)}
		costName := ObjCores
		if useCost2 {
			costName = ObjCost2
		}
		otterConf, gps, err := tuner.Recommend(obs, []string{ObjLatency, costName}, weights[:])
		if err != nil {
			return nil, err
		}
		otterX, err := setup.Space.Encode(otterConf)
		if err != nil {
			return nil, err
		}
		otterPred := objective.Point{gps[0].Predict(otterX), gps[1].Predict(otterX)}

		udaoActual, err := setup.Measure(udaoConf)
		if err != nil {
			return nil, err
		}
		otterActual, err := setup.Measure(otterConf)
		if err != nil {
			return nil, err
		}
		expertActual, err := setup.Measure(setup.ExpertConf)
		if err != nil {
			return nil, err
		}

		rows = append(rows, E2ERow{
			Workload:     setup.Workload,
			UdaoPred:     udaoPred,
			OtterPred:    otterPred,
			UdaoActual:   udaoActual,
			OtterActual:  otterActual,
			ExpertActual: expertActual,
		})
	}
	return rows, nil
}

// WriteFig6 prints the per-job comparison in the style of Fig. 6: the
// slower system's latency normalized to 100%.
func WriteFig6(w io.Writer, rows []E2ERow, measured bool) {
	fmt.Fprintf(w, "%-14s %10s %10s %10s %10s %12s\n",
		"workload", "udao-lat%", "otter-lat%", "udao-cost", "otter-cost", "udao-saves%")
	for _, r := range rows {
		u, o := r.UdaoPred, r.OtterPred
		if measured {
			u, o = r.UdaoActual, r.OtterActual
		}
		slow := math.Max(u[0], o[0])
		if slow <= 0 {
			slow = 1
		}
		fmt.Fprintf(w, "%-14s %10.1f %10.1f %10.1f %10.1f %12.1f\n",
			r.Workload, 100*u[0]/slow, 100*o[0]/slow, u[1], o[1], 100*(o[0]-u[0])/o[0])
	}
}

// Fig6Summary aggregates the end-to-end rows: total running time of the
// benchmark under each system and the reduction UDAO achieves — the paper's
// 26%–49% headline.
type Fig6Summary struct {
	UdaoTotalLat, OtterTotalLat float64
	ReductionPct                float64
	Dominated                   int // jobs where UDAO beats OtterTune in both objectives
}

// Summarize computes the aggregate over measured values.
func Summarize(rows []E2ERow) Fig6Summary {
	var s Fig6Summary
	for _, r := range rows {
		s.UdaoTotalLat += r.UdaoActual[0]
		s.OtterTotalLat += r.OtterActual[0]
		if r.UdaoActual[0] < r.OtterActual[0] && r.UdaoActual[1] <= r.OtterActual[1] {
			s.Dominated++
		}
	}
	if s.OtterTotalLat > 0 {
		s.ReductionPct = 100 * (s.OtterTotalLat - s.UdaoTotalLat) / s.OtterTotalLat
	}
	return s
}

// TopLongRunning returns the n rows with the largest measured UDAO latency,
// in decreasing order — the "top 12 long-running jobs" of Fig. 6(e).
func TopLongRunning(rows []E2ERow, n int) []E2ERow {
	sorted := append([]E2ERow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		return math.Max(sorted[i].UdaoActual[0], sorted[i].OtterActual[0]) >
			math.Max(sorted[j].UdaoActual[0], sorted[j].OtterActual[0])
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// PIRPoint is one (model error, performance improvement) sample of
// Fig. 6(g)/(h).
type PIRPoint struct {
	System string
	APE    float64 // |predicted − actual| / actual latency
	PIR    float64 // (expert − actual) / expert latency
}

// PIRAnalysis is Expt 5's output.
type PIRAnalysis struct {
	Points []PIRPoint
	// MeanAPE and NegativeCount per system.
	UdaoMeanAPE, OtterMeanAPE   float64
	UdaoNegative, OtterNegative int
	UdaoCount, OtterCount       int
}

// AnalyzePIR derives the Expt-5 scatter from end-to-end rows (collected
// across weights and cost metrics; the paper uses 120 configurations per
// system).
func AnalyzePIR(rowSets ...[]E2ERow) PIRAnalysis {
	var out PIRAnalysis
	var udaoNum, udaoDen, otterNum, otterDen float64
	for _, rows := range rowSets {
		for _, r := range rows {
			expert := r.ExpertActual[0]
			if expert <= 0 {
				continue
			}
			up := PIRPoint{System: "UDAO",
				APE: math.Abs(r.UdaoPred[0]-r.UdaoActual[0]) / r.UdaoActual[0],
				PIR: (expert - r.UdaoActual[0]) / expert}
			op := PIRPoint{System: "Ottertune",
				APE: math.Abs(r.OtterPred[0]-r.OtterActual[0]) / r.OtterActual[0],
				PIR: (expert - r.OtterActual[0]) / expert}
			out.Points = append(out.Points, up, op)
			udaoNum += math.Abs(r.UdaoPred[0] - r.UdaoActual[0])
			udaoDen += r.UdaoActual[0]
			otterNum += math.Abs(r.OtterPred[0] - r.OtterActual[0])
			otterDen += r.OtterActual[0]
			out.UdaoCount++
			out.OtterCount++
			if up.PIR < 0 {
				out.UdaoNegative++
			}
			if op.PIR < 0 {
				out.OtterNegative++
			}
		}
	}
	if udaoDen > 0 {
		out.UdaoMeanAPE = udaoNum / udaoDen
	}
	if otterDen > 0 {
		out.OtterMeanAPE = otterNum / otterDen
	}
	return out
}

// Print writes the Expt-5 summary.
func (p PIRAnalysis) Print(w io.Writer) {
	fmt.Fprintf(w, "%-10s %12s %14s %8s\n", "system", "wmape(%)", "PIR<0 count", "configs")
	fmt.Fprintf(w, "%-10s %12.1f %11d/%d %8d\n", "UDAO", 100*p.UdaoMeanAPE, p.UdaoNegative, p.UdaoCount, p.UdaoCount)
	fmt.Fprintf(w, "%-10s %12.1f %11d/%d %8d\n", "Ottertune", 100*p.OtterMeanAPE, p.OtterNegative, p.OtterCount, p.OtterCount)
}

// StreamE2ERow is Expt 3's streaming comparison (Fig. 6(c)/(d)): latency vs
// throughput under accurate models.
type StreamE2ERow struct {
	Workload          string
	UdaoLat, OtterLat float64
	UdaoThr, OtterThr float64
}

// StreamEndToEnd compares PF-WUN against the OtterTune weighted method on
// streaming workloads with (latency, throughput) objectives, evaluated on
// the models (the accurate-model regime).
func (l *Lab) StreamEndToEnd(ids []int, weights [2]float64, seed int64) ([]StreamE2ERow, error) {
	rows := make([]StreamE2ERow, 0, len(ids))
	for _, id := range ids {
		setup, err := l.StreamSetup(id, KindGP, false)
		if err != nil {
			return nil, err
		}
		front, err := setup.pf(true, 30, 0, core.Options{Seed: seed + int64(id)})
		if err != nil {
			return nil, err
		}
		sol, err := recommend.WeightedUtopiaNearest(front, weights[:])
		if err != nil {
			return nil, err
		}

		// OtterTune sees the same traces as one "historical" workload and
		// minimizes w1·lat − w2·thr via its GP search.
		hist := trace.NewStore()
		for _, e := range setup.Entries {
			hist.Add(e)
		}
		obs := setup.Entries
		if len(obs) > 10 {
			obs = obs[:10]
		}
		tuner := &ottertune.Tuner{Spc: setup.Space, History: hist, GPCfg: l.GPCfg, Candidates: 1024, Seed: seed + int64(id)}
		otterConf, gps, err := tuner.RecommendMaximize(obs, []string{ObjLatency, ObjThroughput}, weights[:], []bool{false, true})
		if err != nil {
			return nil, err
		}
		otterX, err := setup.Space.Encode(otterConf)
		if err != nil {
			return nil, err
		}
		rows = append(rows, StreamE2ERow{
			Workload: setup.Workload,
			UdaoLat:  sol.F[0],
			UdaoThr:  -sol.F[1],
			OtterLat: gps[0].Predict(otterX),
			OtterThr: gps[1].Predict(otterX),
		})
	}
	return rows, nil
}

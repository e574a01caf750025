package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/model/dnn"
	"repro/internal/modelserver"
	"repro/internal/telemetry"
)

// joined is one traced request: the client's outcome and the server-side
// layer sample of the same request.
type joined struct {
	o *Outcome
	s *sample
}

// joinSamples pairs the outcomes of a disposition with their samples.
func joinSamples(tr *TracedResult, outs []Outcome, keep func(*Outcome) bool) []joined {
	var out []joined
	for i := range outs {
		o := &outs[i]
		if !o.OK() || !keep(o) {
			continue
		}
		if o.Server >= len(tr.Samples) {
			continue
		}
		if s, ok := tr.Samples[o.Server][o.RunRecord]; ok {
			out = append(out, joined{o, s})
		}
	}
	return out
}

// tracedSources picks the traced hits and solves the same way sources does
// for the untraced run. A run's observes all come from one source, so their
// layer samples need no join.
func tracedSources(tr *TracedResult) (hits, solves []joined) {
	r := tr.Run
	if hits = joinSamples(tr, r.Measured, isHit); len(hits) == 0 {
		hits = joinSamples(tr, r.Probe, isHit)
	}
	if solves = joinSamples(tr, r.Measured, isSolve); len(solves) == 0 {
		solves = joinSamples(tr, r.SetupSolves, isSolve)
	}
	return hits, solves
}

func meanDur(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return ms(t) / float64(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meanOf averages f over the joined requests (0 when there are none).
func meanOf(js []joined, f func(joined) float64) float64 {
	if len(js) == 0 {
		return 0
	}
	var s float64
	for _, j := range js {
		s += f(j)
	}
	return s / float64(len(js))
}

// mogdUnion returns the wall time covered by the solver's spans inside a
// request's Expand, merging overlapping intervals (PF-AP runs solves
// concurrently), and the number of SolveBatch calls.
func mogdUnion(s *sample) (time.Duration, int) {
	var iv [][2]time.Time
	batches := 0
	for _, e := range s.evs {
		if e.Scope != "mogd" || e.Span == 0 {
			continue
		}
		lo, hi := e.Time.Add(-e.Dur), e.Time
		if hi.Before(s.expandLo) || lo.After(s.expandHi) {
			continue
		}
		if e.Name == "solve_batch" {
			batches++
		}
		iv = append(iv, [2]time.Time{lo, hi})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curHi) {
			if i > 0 {
				total += curHi.Sub(curLo)
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1].After(curHi) {
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi.Sub(curLo)
	}
	return total, batches
}

// layerTime is one layer's self-time within a request, in ms.
type layerTime struct {
	name string
	ms   float64
}

// layerTimes returns the self-times of one request's layers inside the
// composed Optimize. Their sum subtracted from the Optimize time is the
// request's residual.
func layerTimes(s *sample) []layerTime {
	mogd, _ := mogdUnion(s)
	return []layerTime{
		{"serving.acquire_self", ms(s.acquire - s.build - s.train - s.fetch - s.expand)},
		{"modelserver.train", ms(s.train)},
		{"modelserver.fetch", ms(s.fetch)},
		{"udao.build", ms(s.build)},
		{"core.expand_self", ms(s.expand - mogd)},
		{"mogd.solve", ms(mogd)},
		{"udao.frontier", ms(s.frontier)},
		{"recommend.wun", ms(s.wun)},
		{"metrics.uncertain_space", ms(s.uncertain)},
		{"gp.predicted_std", ms(s.std)},
		{"telemetry.events", ms(s.events)},
		{"telemetry.phase_breakdown", ms(s.phases)},
		{"runlog.append", ms(s.appendT)},
	}
}

func layerSum(s *sample) float64 {
	var t float64
	for _, l := range layerTimes(s) {
		t += l.ms
	}
	return t
}

func residual(j joined) float64 { return ms(j.s.optimize) - layerSum(j.s) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sumCount(js []joined, name string) float64 {
	var t float64
	for _, j := range js {
		t += float64(j.s.counts[name])
	}
	return t
}

// dnnForwardFlops returns the multiply-add FLOPs of one forward pass of the
// service's DNN latency model, read from a trained network's layer shapes
// (0 for other model families).
func dnnForwardFlops(h *tracedHost, workload string) float64 {
	if h.kind != modelserver.DNN {
		return 0
	}
	m, err := h.svc.Server.Model(workload, "latency")
	if err != nil {
		return 0
	}
	if e, ok := m.(model.Exp); ok {
		m = e.M
	}
	net, ok := m.(*dnn.Net)
	if !ok {
		return 0
	}
	var f float64
	for _, l := range net.Layers {
		f += 2 * float64(l.In) * float64(l.Out)
	}
	return f
}

// perLayer computes the per-layer metrics of a traced run. Times are means
// over the requests of one disposition, so they add up against the mean
// end-to-end latency; counts are per request unless named otherwise.
func perLayer(base *RunResult, tr *TracedResult) map[string]Metric {
	hits, solves := tracedSources(tr)
	// Host-wide figures are combined over the hosts: counts and allocations
	// summed, GC time over the measured windows, boot collection averaged.
	// The retention batch runs on the last host only.
	var cacheHits, cacheReqs, allocKB, gcSec, winSec, collectMS, retainedKB float64
	for _, h := range tr.Hosts {
		st := h.cache.Stats()
		cacheHits += float64(st.Hits)
		cacheReqs += float64(st.Requests)
		collectMS += ms(h.collect) / float64(len(tr.Hosts))
		retainedKB = h.retainedKB
		if h.t1.IsZero() {
			continue
		}
		allocKB += float64(h.mem1.TotalAlloc-h.mem0.TotalAlloc) / 1024
		winSec += h.t1.Sub(h.t0).Seconds()
		gcSec += h.mem1.GCCPUFraction*h.t1.Sub(procStart).Seconds() - h.mem0.GCCPUFraction*h.t0.Sub(procStart).Seconds()
	}
	var memoHits, memoAll, gflop float64
	for _, j := range solves {
		memoHits += float64(j.s.memoHits)
		memoAll += float64(j.s.memoHits + j.s.memoMiss)
	}
	// Trainings are counted over every build of the run, set-up included:
	// on the GP workloads the set-up trains the models its later solves
	// reuse.
	var trainings, trainMS, builds float64
	for _, samples := range tr.Samples {
		for _, s := range samples {
			if s.counts == nil {
				continue
			}
			builds++
			trainings += float64(s.trainings)
			trainMS += ms(s.train)
		}
	}
	if len(solves) > 0 && solves[0].o.Server < len(tr.Hosts) {
		// Half the model passes go to the learned latency model; cores is an
		// exact knob function.
		gflop = meanOf(solves, func(j joined) float64 { return float64(j.s.evals) }) / 2 *
			dnnForwardFlops(tr.Hosts[solves[0].o.Server], solves[0].o.Workload) / 1e9
	}
	subHits := sumCount(solves, telemetry.MetricMOGDCacheHit)
	subAll := subHits + sumCount(solves, telemetry.MetricMOGDCacheMiss)
	nMeas := len(tr.Run.Measured)

	bh, bs, _ := sources(base)
	th, ts, _ := sources(tr.Run)

	m := map[string]Metric{
		"service.http_ms":               {meanOf(hits, func(j joined) float64 { return j.o.ms() - ms(j.s.optimize) }), "ms"},
		"serving.acquire_hit_ms":        {meanOf(hits, func(j joined) float64 { return ms(j.s.acquire) }), "ms"},
		"serving.acquire_solve_self_ms": {meanOf(solves, func(j joined) float64 { return ms(j.s.acquire - j.s.build - j.s.train - j.s.fetch - j.s.expand) }), "ms"},
		"serving.hit_ratio":             {ratio(cacheHits, cacheReqs), "fraction"},
		"udao.frontier_ms":              {meanOf(hits, func(j joined) float64 { return ms(j.s.frontier) }), "ms"},
		"recommend.wun_ms":              {meanOf(hits, func(j joined) float64 { return ms(j.s.wun) }), "ms"},
		"metrics.uncertain_space_ms":    {meanOf(hits, func(j joined) float64 { return ms(j.s.uncertain) }), "ms"},
		"gp.predicted_std_ms":           {meanOf(hits, func(j joined) float64 { return ms(j.s.std) }), "ms"},
		"telemetry.events_ms":           {meanOf(hits, func(j joined) float64 { return ms(j.s.events) }), "ms"},
		"telemetry.events_copied":       {meanOf(hits, func(j joined) float64 { return float64(j.s.copied) }), "count"},
		"telemetry.phase_breakdown_ms":  {meanOf(hits, func(j joined) float64 { return ms(j.s.phases) }), "ms"},
		"runlog.append_ms":              {meanOf(hits, func(j joined) float64 { return ms(j.s.appendT) }), "ms"},
		"runlog.retained_kb_per_record": {retainedKB, "KiB"},
		"calib.observe_ms":              {meanDur(tr.Observes), "ms"},
		"modelserver.train_ms":          {ratio(trainMS, trainings), "ms"},
		"modelserver.trainings":         {ratio(trainings, builds), "count"},
		"udao.build_ms":                 {meanOf(solves, func(j joined) float64 { return ms(j.s.build) }), "ms"},
		"core.expand_self_ms":           {meanOf(solves, func(j joined) float64 { u, _ := mogdUnion(j.s); return ms(j.s.expand - u) }), "ms"},
		"core.probes":                   {ratio(sumCount(solves, telemetry.MetricPFProbes), float64(len(solves))), "count"},
		"core.solve_batches":            {meanOf(solves, func(j joined) float64 { _, b := mogdUnion(j.s); return float64(b) }), "count"},
		"mogd.solve_ms":                 {meanOf(solves, func(j joined) float64 { u, _ := mogdUnion(j.s); return ms(u) }), "ms"},
		"mogd.solves":                   {ratio(sumCount(solves, telemetry.MetricMOGDSolves), float64(len(solves))), "count"},
		"mogd.iterations":               {ratio(sumCount(solves, telemetry.MetricMOGDIterations), float64(len(solves))), "count"},
		"mogd.subcache_hit_ratio":       {ratio(subHits, subAll), "fraction"},
		"mogd.near_hits":                {ratio(sumCount(solves, telemetry.MetricMOGDCacheNear), float64(len(solves))), "count"},
		"problem.evals":                 {meanOf(solves, func(j joined) float64 { return float64(j.s.evals) }), "count"},
		"problem.memo_hit_ratio":        {ratio(memoHits, memoAll), "fraction"},
		"problem.batch_points":          {ratio(sumCount(solves, telemetry.MetricEvalBatchPts), sumCount(solves, telemetry.MetricEvalBatches)), "count"},
		"linalg.gemm_gflop_per_req":     {gflop, "GFLOP"},
		"go.alloc_kb_per_req":           {ratio(allocKB, float64(nMeas)), "KiB"},
		"go.gc_cpu_frac":                {ratio(gcSec, winSec), "fraction"},
		"trace.collect_ms":              {collectMS, "ms"},
		"watch.alerts":                  {float64(tr.Run.Alerts), "count"},
		"residual_ms.hit":               {meanOf(hits, residual), "ms"},
		"residual_ms.solve":             {meanOf(solves, residual), "ms"},
		"trace_overhead_frac.hit":       {ratio(Median(th), Median(bh)) - 1, "fraction"},
		"trace_overhead_frac.solve":     {ratio(Median(ts), Median(bs)) - 1, "fraction"},
	}
	return m
}

// printReconciliation prints, per disposition, the mean self-time of each
// layer, their sum against the mean end-to-end latency with the residual,
// the tracing overhead and the per-request counts, so a change can be
// reasoned about as count × cost.
func printReconciliation(w io.Writer, d *Deck, base *RunResult, tr *TracedResult) {
	hits, solves := tracedSources(tr)
	bh, bs, bo := sources(base)
	_, _, to := sources(tr.Run)
	fmt.Fprintf(w, "reconciliation %s (means over requests; ms)\n", d.Workload)
	for _, g := range []struct {
		name string
		js   []joined
		base []float64
	}{{"hit", hits, bh}, {"solve", solves, bs}} {
		if len(g.js) == 0 {
			continue
		}
		e2e := meanOf(g.js, func(j joined) float64 { return j.o.ms() })
		http := meanOf(g.js, func(j joined) float64 { return j.o.ms() - ms(j.s.optimize) })
		var sum float64
		var b strings.Builder
		fmt.Fprintf(&b, "  %-6s n=%d  end-to-end mean %.3f  traced p50 %.3f  untraced p50 %.3f  overhead %+.1f%%\n",
			g.name, len(g.js), e2e, Median(latenciesOf(g.js)), Median(g.base), 100*(ratio(Median(latenciesOf(g.js)), Median(g.base))-1))
		fmt.Fprintf(&b, "    %-28s %10.4f\n", "service.http", http)
		sum += http
		rows := make([][]layerTime, len(g.js))
		for i, j := range g.js {
			rows[i] = layerTimes(j.s)
		}
		for k, l := range rows[0] {
			var v float64
			for _, r := range rows {
				v += r[k].ms
			}
			v /= float64(len(rows))
			sum += v
			fmt.Fprintf(&b, "    %-28s %10.4f\n", l.name, v)
		}
		res := e2e - sum
		fmt.Fprintf(&b, "    %-28s %10.4f\n    %-28s %10.4f (%.1f%% of end-to-end)\n", "sum of layers", sum, "residual", res, 100*ratio(res, e2e))
		fmt.Fprint(w, b.String())
	}
	if len(solves) > 0 {
		per := func(name string) float64 { return ratio(sumCount(solves, name), float64(len(solves))) }
		fmt.Fprintf(w, "  counts per solve: trainings %.2f  probes %.1f  mogd solves %.1f  mogd iterations %.0f  evals %.0f  eval batch points %.0f\n",
			meanOf(solves, func(j joined) float64 { return float64(j.s.trainings) }), per(telemetry.MetricPFProbes),
			per(telemetry.MetricMOGDSolves), per(telemetry.MetricMOGDIterations),
			meanOf(solves, func(j joined) float64 { return float64(j.s.evals) }), per(telemetry.MetricEvalBatchPts))
	}
	if len(to) > 0 {
		fmt.Fprintf(w, "  observe n=%d  end-to-end mean %.3f  traced p50 %.3f  untraced p50 %.3f  calib.observe %.4f\n",
			len(to), Mean(to), Median(to), Median(bo), meanDur(tr.Observes))
	}
}

func latenciesOf(js []joined) []float64 {
	out := make([]float64, len(js))
	for i, j := range js {
		out[i] = j.o.ms()
	}
	sort.Float64s(out)
	return out
}

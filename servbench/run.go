package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// target is one service instance a run drives: a udao-server process
// (untraced) or the service hosted in this process (traced).
type target interface {
	base() string
	// serverPID is the process whose CPU and memory the run reports; 0 when
	// the service shares this process with the client.
	serverPID() int
	startTime() time.Time
	stop()
}

// measureHooks, when a target implements it, is called just outside the
// measured phase's timed window, and once more after the probes.
type measureHooks interface {
	beforeMeasure()
	afterMeasure()
	afterProbes() error
}

func (p *serverProc) base() string         { return p.url }
func (p *serverProc) serverPID() int       { return p.pid() }
func (p *serverProc) startTime() time.Time { return p.start }

// RunResult is everything one pass over a deck observed. A run measures on
// one or more fresh servers in turn; per-server figures are combined over
// them.
type RunResult struct {
	SetupSec    []float64
	SetupSolves []Outcome // the set-up answers of every set-up
	Warm        []Outcome
	Measured    []Outcome // measured phase, observes included
	Probe       []Outcome // post-phase hits and observes
	MeasWall    time.Duration
	CPUTicks    uint64 // server CPU over the measured phases
	StealMeas   float64
	StealRun    float64
	HWMKB       uint64 // the largest VmHWM of the measuring servers
	Alerts      int
	Sweeps      int   // watchdog sweeps, summed over the measuring servers
	PerConn     []int // completed measured requests per connection
	Overlap     time.Duration
	Digests     map[int]string
	Attempted   int
	Failed      int
	FirstErr    error
	Wall        time.Duration
	Ref         [2]MachineRef // before set-up and after the probes
	// LastSolveAge and AlertsAge are, per measuring server, its age at its
	// last solve answer and at the final /alerts read.
	LastSolveAge []float64
	AlertsAge    []float64

	measTicks CPUTimes // /proc/stat ticks over the measured phases
}

func (r *RunResult) fail(err error) {
	if err != nil && r.FirstErr == nil {
		r.FirstErr = err
	}
}

// account counts outcomes as attempted and failed and collects digests.
// The same request ID must carry the same digest wherever it recurs.
func (r *RunResult) account(outs []Outcome) {
	for i := range outs {
		o := &outs[i]
		r.Attempted++
		if !o.OK() {
			r.Failed++
			r.fail(o.Err)
			continue
		}
		if o.Observe {
			continue
		}
		if prev, ok := r.Digests[o.ID]; ok && prev != o.Digest {
			r.Failed++
			r.fail(fmt.Errorf("request %d: answer digest %s differs from an earlier answer %s", o.ID, o.Digest, prev))
			continue
		}
		r.Digests[o.ID] = o.Digest
	}
}

// watchInterval is udao-server's shipped watchdog interval. Its first sweep
// only records a baseline, so the rules on per-window deltas first run at
// twice the interval.
const watchInterval = 15 * time.Second

// execute runs a deck on `setups` fresh servers, one after the other, at
// least d.Servers of them. Each is set up; the last d.Servers then carry on
// with warm-up and their part of the measured phase, the last one with the
// probes too; the others stop right after set-up.
func execute(d *Deck, setups int, start func() (target, error)) (*RunResult, error) {
	res := &RunResult{Digests: map[int]string{}}
	res.Ref[0] = machineRef()
	t0 := time.Now()
	steal0, err := systemCPU()
	if err != nil {
		return nil, err
	}
	servers := d.servers()
	if setups < servers {
		setups = servers
	}
	for i := 0; i < setups; i++ {
		part := i - (setups - servers)
		if err := runServer(d, res, start, i, part); err != nil {
			return nil, err
		}
	}
	res.StealMeas = StealFrac(CPUTimes{}, res.measTicks)
	steal1, err := systemCPU()
	if err != nil {
		return nil, err
	}
	res.StealRun = StealFrac(steal0, steal1)
	res.Wall = time.Since(t0)
	res.Ref[1] = machineRef()
	return res, nil
}

// tag marks outcomes with the index of the server that answered them.
func tag(outs []Outcome, server int) []Outcome {
	for i := range outs {
		outs[i].Server = server
	}
	return outs
}

// runServer starts server number idx and sets it up. A server with part >= 0
// then runs warm-up and part `part` of the measured phase; the last part also
// runs the probes.
func runServer(d *Deck, res *RunResult, start func() (target, error), idx, part int) error {
	tg, err := start()
	if err != nil {
		return err
	}
	defer tg.stop()
	c := newClient(tg.base(), 2)
	defer c.close()
	setup := make([]Outcome, 0, len(d.Setup))
	for _, r := range d.Setup {
		setup = append(setup, c.optimize(0, r))
	}
	res.SetupSec = append(res.SetupSec, time.Since(tg.startTime()).Seconds())
	res.SetupSolves = append(res.SetupSolves, tag(setup, idx)...)
	res.account(setup)
	if part < 0 {
		return nil
	}
	lastSolve := lastEnd(setup, isSolve)

	var warm []Outcome
	for _, conn := range drive(c, d.Warmup, false) {
		warm = append(warm, conn...)
	}
	res.Warm = append(res.Warm, tag(warm, idx)...)
	res.account(warm)
	lastSolve = later(lastSolve, lastEnd(warm, isSolve))

	pid := tg.serverPID()
	var cpu0, cpu1 uint64
	if pid != 0 {
		if cpu0, err = pidCPU(pid); err != nil {
			return err
		}
	}
	s0, err := systemCPU()
	if err != nil {
		return err
	}
	hooks, _ := tg.(measureHooks)
	if hooks != nil {
		hooks.beforeMeasure()
	}
	m0 := time.Now()
	conns := drive(c, d.part(part), d.Chunked)
	res.MeasWall += time.Since(m0)
	if hooks != nil {
		hooks.afterMeasure()
	}
	s1, err := systemCPU()
	if err != nil {
		return err
	}
	if pid != 0 {
		if cpu1, err = pidCPU(pid); err != nil {
			return err
		}
		res.CPUTicks += cpu1 - cpu0
	}
	res.measTicks.Total += s1.Total - s0.Total
	res.measTicks.Steal += s1.Steal - s0.Steal
	var spans [][2]time.Time
	var measured []Outcome
	for ci, conn := range conns {
		if ci >= len(res.PerConn) {
			res.PerConn = append(res.PerConn, 0)
		}
		res.PerConn[ci] += len(conn)
		measured = append(measured, conn...)
		if len(conn) > 0 {
			spans = append(spans, [2]time.Time{conn[0].Start, conn[len(conn)-1].End})
		}
	}
	if len(spans) == 2 {
		lo, hi := spans[0][0], spans[0][1]
		if spans[1][0].After(lo) {
			lo = spans[1][0]
		}
		if spans[1][1].Before(hi) {
			hi = spans[1][1]
		}
		if hi.After(lo) {
			res.Overlap += hi.Sub(lo)
		}
	}
	res.Measured = append(res.Measured, tag(measured, idx)...)
	res.account(measured)
	lastSolve = later(lastSolve, lastEnd(measured, isSolve))

	if part == d.servers()-1 {
		probe(d, res, c, idx, measured)
		if hooks != nil {
			if err := hooks.afterProbes(); err != nil {
				return err
			}
		}
	}

	if pid != 0 {
		hwm, err := pidHWM(pid)
		if err != nil {
			return err
		}
		if hwm > res.HWMKB {
			res.HWMKB = hwm
		}
	}
	var alerts struct {
		Alerts []map[string]any `json:"alerts"`
	}
	if err := c.get("/alerts", &alerts); err != nil {
		return err
	}
	alertsAge := time.Since(tg.startTime())
	var health struct {
		Watchdog struct {
			Evals int `json:"evals"`
		} `json:"watchdog"`
	}
	if err := c.get("/healthz", &health); err != nil {
		return err
	}
	res.Sweeps += health.Watchdog.Evals
	solveAge := lastSolve.Sub(tg.startTime())
	res.LastSolveAge = append(res.LastSolveAge, solveAge.Seconds())
	res.AlertsAge = append(res.AlertsAge, alertsAge.Seconds())
	if n := len(alerts.Alerts); n > 0 {
		res.Alerts += n
		if solveAge >= watchInterval && alertsAge >= 2*watchInterval {
			res.fail(fmt.Errorf("watchdog fired %d alert(s) on a server that solved past its first sweep (last solve at %.1fs) and lived past the first delta sweep at %s: the machine ran this deck too slowly; %v",
				n, solveAge.Seconds(), 2*watchInterval, alerts.Alerts))
		} else {
			res.fail(fmt.Errorf("watchdog fired %d alert(s): %v", n, alerts.Alerts))
		}
	}
	return nil
}

// probe sends the deck's probe hits after the measured phase, on one
// connection as hot-hits does, then its observes over both connections: a
// busy server answers sub-millisecond requests more steadily than an idle
// one woken for each request. The observes cycle through the run records of
// this server's measured answers and probe hits.
func probe(d *Deck, res *RunResult, c *Client, idx int, measured []Outcome) {
	var outs []Outcome
	if len(d.ProbeHits) > 0 {
		outs = drive(c, [][]Req{d.ProbeHits}, false)[0]
	}
	var answered []Outcome
	for _, o := range append(append([]Outcome(nil), measured...), outs...) {
		if o.OK() && !o.Observe && o.RunRecord != "" {
			answered = append(answered, o)
		}
	}
	if len(d.ProbeObserves) > 0 && len(answered) == 0 {
		res.fail(errors.New("no recorded answers to observe"))
	} else {
		outs = append(outs, observeAll(c, answered, d.ProbeObserves)...)
	}
	res.Probe = append(res.Probe, tag(outs, idx)...)
	res.account(outs)
}

// lastEnd returns when the last successful outcome that matches keep ended
// (the zero time when none did).
func lastEnd(outs []Outcome, keep func(*Outcome) bool) time.Time {
	var t time.Time
	for i := range outs {
		if outs[i].OK() && keep(&outs[i]) && outs[i].End.After(t) {
			t = outs[i].End
		}
	}
	return t
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// drive sends each connection's request list in a closed loop, one
// goroutine per connection. With chunked set, connection 1's list is
// released in len(lists[0]) equal chunks, one as each of connection 0's
// requests starts, so every chunk overlaps a request of connection 0
// whatever the machine's speed.
func drive(c *Client, lists [][]Req, chunked bool) [][]Outcome {
	out := make([][]Outcome, len(lists))
	var release chan struct{}
	chunk := 0
	if chunked {
		jobs := len(lists[0])
		release = make(chan struct{}, jobs)
		chunk = (len(lists[1]) + jobs - 1) / jobs
	}
	var wg sync.WaitGroup
	for ci, list := range lists {
		wg.Add(1)
		go func(ci int, list []Req) {
			defer wg.Done()
			res := make([]Outcome, 0, len(list)+len(list)/4)
			for i, r := range list {
				if chunked && ci == 0 {
					release <- struct{}{}
				}
				if chunked && ci == 1 && i%chunk == 0 {
					<-release
				}
				o := c.optimize(ci, r)
				res = append(res, o)
				if r.Observe && o.OK() && o.RunRecord != "" {
					res = append(res, c.observe(ci, o.RunRecord, o.Objectives, r.Noise))
				}
			}
			out[ci] = res
		}(ci, list)
	}
	wg.Wait()
	return out
}

// observeAll sends one POST /observe per noise value over two connections,
// cycling through the answers' run records.
func observeAll(c *Client, answered []Outcome, noise []float64) []Outcome {
	const conns = 2
	out := make([][]Outcome, conns)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := ci; i < len(noise); i += conns {
				a := &answered[i%len(answered)]
				out[ci] = append(out[ci], c.observe(ci, a.RunRecord, a.Objectives, noise[i]))
			}
		}(ci)
	}
	wg.Wait()
	return append(out[0], out[1]...)
}

// latencies returns the latencies in ms of the successful outcomes that
// match keep.
func latencies(outs []Outcome, keep func(*Outcome) bool) []float64 {
	var out []float64
	for i := range outs {
		if outs[i].OK() && keep(&outs[i]) {
			out = append(out, outs[i].ms())
		}
	}
	sort.Float64s(out)
	return out
}

func isHit(o *Outcome) bool     { return !o.Observe && o.Served == "hit" }
func isSolve(o *Outcome) bool   { return !o.Observe && o.Served == "solve" }
func isObserve(o *Outcome) bool { return o.Observe }

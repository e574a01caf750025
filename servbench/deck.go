package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/bench/tpcxbb"
	"repro/internal/service"
	"repro/internal/spark"
)

// Workload names, as BENCHMARK.json lists them.
const (
	hotHits       = "hot-hits"
	coldDNN       = "cold-dnn"
	mixedPipeline = "mixed-pipeline"
)

var workloads = []string{hotHits, coldDNN, mixedPipeline}

// The hit-path keys live on the server's default workloads (ids 1 and 9), so
// hot-hits and mixed-pipeline start udao-server with no -workloads flag.
const (
	flatA    = "q02-w001"
	flatB    = "q10-w009"
	pipeName = "etl-ml"
	// setupProbes is the probe budget set-up solves each key with; hits ask
	// for at most this many, so the cached frontier always suffices.
	setupProbes = 30
	// jobProbes sizes mixed-pipeline's cold pipeline solves well under the
	// service's 3 s SLO on two shared cores.
	jobProbes = 12
	// warmupHits fills udao-server's 4,096-event trace ring past the point
	// where the set-up solves' events have been evicted: each hit adds two
	// events (the HTTP request and the optimize root span), so 2,100 hits
	// evict them, and hit cost depends on how full the ring is.
	warmupHits = 2400
	// coldWarmup is the number of cold solves cold-dnn runs on each server
	// before measuring, on workloads outside its measured set.
	coldWarmup = 2
	// coldServers and mixedServers split the measured solves of cold-dnn and
	// mixed-pipeline over that many fresh servers. The watchdog's rules on
	// per-window deltas first run 30 s after boot (twice its 15 s interval)
	// and see only what happened after the first sweep, and a cold solve
	// gets no subproblem-cache hits, so a server still solving after 15 s
	// and alive at 30 s fires subcache_collapse. See README.md for the
	// servers' measured ages.
	coldServers  = 2
	mixedServers = 3
	// coldSetups is the number of boots cold-dnn's setup_s is the median
	// of. Its set-up is the boot alone, about 40 ms, so extra boots are
	// cheap and steady the median.
	coldSetups = 9
	// probeHits and probeObserves size the post-phase probes that give a
	// workload the dispositions its measured phase does not produce.
	probeHits     = 2000
	probeObserves = 1000
)

// Per-second quotas: a run sends quota × --seconds requests, so a given
// --seconds always sends the same number of requests, whatever the machine
// speed, and the server's retained state does not track throughput.
const (
	hotHitsPerSec   = 400
	coldPerSec      = 1.6
	mixedJobsPerSec = 1.6
	mixedHitsPerSec = 240
)

// sharedKnobs are the cluster-sizing knobs a pipeline ties across its
// stages; every other knob is tuned per stage.
var sharedKnobs = []string{spark.KnobInstances, spark.KnobCores, spark.KnobMemory}

// Req is one request of a deck and what its answer must look like.
type Req struct {
	// ID numbers the request within its deck, in Deck.Requests order.
	ID   int
	Body service.OptimizeRequest
	// Want is the served disposition the answer must report.
	Want string
	// Observe marks a request whose OK answer is followed by POST /observe
	// for the answer's run record; Noise is the relative error of the
	// reported outcome against the prediction.
	Observe bool
	Noise   float64
}

// Deck is everything a workload sends for one seed. It is a pure function
// of (workload, seed, seconds).
type Deck struct {
	Workload string
	// ServerArgs are udao-server flags beyond -addr.
	ServerArgs []string
	// Setup is solved in order on one connection; set-up ends when the last
	// answer arrives.
	Setup []Req
	// Warmup and Measure hold one request list per connection.
	Warmup  [][]Req
	Measure [][]Req
	// Setups is the number of fresh servers a run sets up (3 when 0); the
	// last Servers of them go on to measure, the others stop right after
	// set-up. setup_s is the median over all of them.
	Setups int
	// Servers is the number of fresh servers the measured phase is split
	// over, one after the other (1 when 0). Each runs set-up, warm-up and
	// its consecutive share of every connection's list, so that no server
	// solves past its first watchdog sweep or lives to the second.
	Servers int
	// Chunked marks mixed-pipeline: connection 1 releases its measured
	// requests in len(Measure[0]) equal chunks, one when each job starts.
	Chunked bool
	// ProbeHits are repeat requests sent over two connections after the
	// measured phase when it has no hits. ProbeObserves, when the measured
	// phase sends no observes, holds the outcome noise of each POST /observe
	// sent after it for the run records of the measured answers, in order.
	ProbeHits     []Req
	ProbeObserves []float64
}

func (d *Deck) setups() int {
	if d.Setups < 1 {
		return 3
	}
	return d.Setups
}

func (d *Deck) servers() int {
	if d.Servers < 1 {
		return 1
	}
	return d.Servers
}

// part returns measuring server i's consecutive share of each connection's
// measured list.
func (d *Deck) part(i int) [][]Req {
	n := d.servers()
	out := make([][]Req, len(d.Measure))
	for c, list := range d.Measure {
		out[c] = list[i*len(list)/n : (i+1)*len(list)/n]
	}
	return out
}

// Requests returns every request of the deck in a fixed order: set-up,
// warm-up and measured phase connection by connection, then the probe.
func (d *Deck) Requests() []Req {
	out := append([]Req(nil), d.Setup...)
	for _, c := range d.Warmup {
		out = append(out, c...)
	}
	for _, c := range d.Measure {
		out = append(out, c...)
	}
	return append(out, d.ProbeHits...)
}

// Fingerprint identifies the deck's content, so answer digests stored by
// an earlier run are only compared with runs of an identical deck.
func (d *Deck) Fingerprint() string {
	b, _ := json.Marshal(d)
	h := sha256.Sum256(b)
	return d.Workload + "-" + hex.EncodeToString(h[:8])
}

// BuildDeck generates the deck of a workload for a seed.
func BuildDeck(workload string, seed int64, seconds int) (*Deck, error) {
	d, err := buildDeck(workload, seed, seconds)
	if err != nil {
		return nil, err
	}
	id := 0
	number := func(rs []Req) {
		for i := range rs {
			rs[i].ID = id
			id++
		}
	}
	number(d.Setup)
	for _, c := range d.Warmup {
		number(c)
	}
	for _, c := range d.Measure {
		number(c)
	}
	number(d.ProbeHits)
	return d, nil
}

func buildDeck(workload string, seed int64, seconds int) (*Deck, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be at least 1, got %d", seconds)
	}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case hotHits:
		d := &Deck{Workload: workload, Setup: setupReqs(rng)}
		d.Warmup = [][]Req{hitReqs(rng, warmupHits)}
		d.Measure = [][]Req{hitReqs(rng, hotHitsPerSec*seconds)}
		d.ProbeObserves = observeNoise(rng, probeObserves)
		return d, nil
	case coldDNN:
		return coldDeck(rng, seconds), nil
	case mixedPipeline:
		d := &Deck{Workload: workload, Setup: setupReqs(rng), Servers: mixedServers, Chunked: true}
		d.Warmup = splitConns(hitReqs(rng, warmupHits), 2)
		// Every server gets at least one job to release its hits.
		jobs := jobReqs(rng, seed, max(mixedServers, int(mixedJobsPerSec*float64(seconds)+0.5)))
		hits := hitReqs(rng, mixedHitsPerSec*seconds)
		for i := 3; i < len(hits); i += 4 {
			hits[i].Observe = true
			hits[i].Noise = observeNoise(rng, 1)[0]
		}
		d.Measure = [][]Req{jobs, hits}
		return d, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}

func weights(rng *rand.Rand) []float64 {
	w := 0.05 + 0.9*rng.Float64()
	return []float64{w, 1 - w}
}

func pipelineReq(label string, stages []string, probes int, w []float64) service.OptimizeRequest {
	return service.OptimizeRequest{
		Workload:    label,
		Stages:      stages,
		SharedKnobs: sharedKnobs,
		Weights:     w,
		Probes:      probes,
	}
}

// hitKey returns request body i of the three set-up keys.
func hitKey(i, probes int, w []float64) service.OptimizeRequest {
	switch i {
	case 0:
		return service.OptimizeRequest{Workload: flatA, Weights: w, Probes: probes}
	case 1:
		return service.OptimizeRequest{Workload: flatB, Weights: w, Probes: probes}
	}
	return pipelineReq(pipeName, []string{flatA, flatB}, probes, w)
}

func setupReqs(rng *rand.Rand) []Req {
	out := make([]Req, 3)
	for i := range out {
		out[i] = Req{Body: hitKey(i, setupProbes, weights(rng)), Want: "solve"}
	}
	return out
}

// hitReqs draws n requests for the set-up keys, with seeded weights and
// probe budgets no higher than set-up solved.
func hitReqs(rng *rand.Rand, n int) []Req {
	out := make([]Req, n)
	for i := range out {
		out[i] = Req{Body: hitKey(rng.Intn(3), 1+rng.Intn(setupProbes), weights(rng)), Want: "hit"}
	}
	return out
}

// jobReqs builds n new pipeline jobs, each under a fresh label. They cycle
// through the four ordered stage pairs over the trained workloads, so every
// seed solves the same mix; only the cycle's order is seeded.
func jobReqs(rng *rand.Rand, seed int64, n int) []Req {
	pairs := [][]string{{flatA, flatB}, {flatB, flatA}, {flatA, flatA}, {flatB, flatB}}
	order := rng.Perm(len(pairs))
	out := make([]Req, n)
	for i := range out {
		label := fmt.Sprintf("job-s%d-%02d-%04x", seed, i, rng.Intn(1<<16))
		out[i] = Req{Body: pipelineReq(label, pairs[order[i%len(pairs)]], jobProbes, weights(rng)), Want: "solve"}
	}
	return out
}

// coldTemplates is the fixed template order cold-dnn takes its workloads
// from: it cycles through the SQL, SQL+UDF and ML families, so any prefix
// mixes them.
var coldTemplates = []int{3, 16, 26, 4, 17, 27, 5, 18, 28, 6, 19, 29, 7, 20, 30, 8, 21, 11, 22, 12, 23, 13, 24, 14, 25, 15, 1, 2, 9, 10}

// coldWorkloadID is the workload cold-dnn uses for a template: its first
// instance, or its second for the templates whose first instance is a
// hit-path workload (ids 1 and 9). The set is fixed rather than drawn from
// the seed: about one workload in seven gets a one-point DNN frontier
// (uncertain_space 1), so a seeded draw made uncertain_frac swing by a
// third from seed to seed.
func coldWorkloadID(template int) int {
	id := template - 1
	if id == 1 || id == 9 {
		id += tpcxbb.NumTemplates
	}
	return id
}

func coldDeck(rng *rand.Rand, seconds int) *Deck {
	n := max(coldServers, int(coldPerSec*float64(seconds)+0.5))
	if n+coldWarmup > len(coldTemplates) {
		n = len(coldTemplates) - coldWarmup
	}
	ids := make([]int, n+coldWarmup)
	for i := range ids {
		ids[i] = coldWorkloadID(coldTemplates[i])
	}
	args := "-workloads="
	reqs := make([]Req, len(ids))
	for i, id := range ids {
		if i > 0 {
			args += ","
		}
		args += fmt.Sprint(id)
		name := tpcxbb.ByID(id).Flow.Name
		reqs[i] = Req{Body: service.OptimizeRequest{Workload: name, Weights: weights(rng), Probes: setupProbes}, Want: "solve"}
	}
	measured := reqs[coldWarmup:]
	rng.Shuffle(len(measured), func(i, j int) { measured[i], measured[j] = measured[j], measured[i] })
	d := &Deck{
		Workload:      coldDNN,
		ServerArgs:    []string{"-model=dnn", args},
		Setups:        coldSetups,
		Servers:       coldServers,
		Warmup:        [][]Req{reqs[:coldWarmup]},
		Measure:       [][]Req{measured},
		ProbeObserves: observeNoise(rng, probeObserves),
	}
	// The probe runs on the last server, so it repeats that server's solves.
	last := d.part(d.servers() - 1)[0]
	d.ProbeHits = make([]Req, probeHits)
	for i := range d.ProbeHits {
		b := last[rng.Intn(len(last))].Body
		b.Weights = weights(rng)
		b.Probes = 1 + rng.Intn(setupProbes)
		d.ProbeHits[i] = Req{Body: b, Want: "hit"}
	}
	return d
}

// observeNoise draws n relative outcome errors within ±4%: close enough to
// the predictions that the calibration rules (MAPE, interval coverage) stay
// quiet.
func observeNoise(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.04 * (2*rng.Float64() - 1)
	}
	return out
}

// splitConns deals reqs round-robin onto n connections.
func splitConns(reqs []Req, n int) [][]Req {
	out := make([][]Req, n)
	for i, r := range reqs {
		out[i%n] = append(out[i%n], r)
	}
	return out
}

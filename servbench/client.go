package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/spark"
)

// Client drives the service over a fixed set of keep-alive connections,
// one per driving goroutine. Requests are written to and read from the
// socket directly, so no transport goroutines sit between the timer and
// the connection: hand-offs between them were a visible share of the
// sub-millisecond latencies measured here.
type Client struct {
	base  string
	addr  string
	conns []*conn
	hc    *http.Client // untimed GETs
}

type conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newClient(base string, conns int) *Client {
	return &Client{
		base:  base,
		addr:  strings.TrimPrefix(base, "http://"),
		conns: make([]*conn, conns),
		hc:    &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) close() {
	for i := range c.conns {
		c.drop(i)
	}
	c.hc.CloseIdleConnections()
}

func (c *Client) drop(i int) {
	if k := c.conns[i]; k != nil {
		k.nc.Close()
		c.conns[i] = nil
	}
}

// conn returns connection i, dialling it first if it is not open.
func (c *Client) conn(i int) (*conn, error) {
	if k := c.conns[i]; k != nil {
		return k, nil
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	k := &conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	c.conns[i] = k
	return k, nil
}

// post sends a JSON body on connection ci and returns the status, the body
// and the latency from writing the request to reading the whole answer.
func (c *Client) post(ci int, path string, body any) (int, []byte, time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, 0, err
	}
	k, err := c.conn(ci)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	_ = k.nc.SetDeadline(start.Add(60 * time.Second))
	fmt.Fprintf(k.bw, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, c.addr, len(b))
	k.bw.Write(b)
	if err := k.bw.Flush(); err != nil {
		c.drop(ci)
		return 0, nil, time.Since(start), err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		c.drop(ci)
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil || resp.Close {
		c.drop(ci)
	}
	return resp.StatusCode, out, lat, err
}

// get fetches path and decodes its JSON answer into v; any status but 200
// is an error.
func (c *Client) get(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// Outcome is one request as the client saw it.
type Outcome struct {
	ID         int // deck request ID; -1 for observes
	Server     int // index of the server that answered, in start order
	Workload   string
	Observe    bool
	Served     string
	Start, End time.Time
	Lat        time.Duration
	Err        error
	Uncertain  float64
	Digest     string
	RunRecord  string
	Objectives map[string]float64
}

// OK reports whether the request succeeded and its answer passed its check.
func (o *Outcome) OK() bool { return o.Err == nil }

func (o *Outcome) ms() float64 { return float64(o.Lat) / float64(time.Millisecond) }

// optimize sends one deck request on connection ci and checks its answer.
func (c *Client) optimize(ci int, r Req) Outcome {
	o := Outcome{ID: r.ID, Workload: r.Body.Workload, Start: time.Now()}
	status, body, lat, err := c.post(ci, "/optimize", r.Body)
	o.Lat, o.End = lat, o.Start.Add(lat)
	if err != nil {
		o.Err = fmt.Errorf("request %d: transport: %w", r.ID, err)
		return o
	}
	if status != http.StatusOK {
		o.Err = fmt.Errorf("request %d: status %d: %s", r.ID, status, strings.TrimSpace(string(body)))
		return o
	}
	var resp service.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		o.Err = fmt.Errorf("request %d: decoding answer: %w", r.ID, err)
		return o
	}
	o.Served, o.Uncertain, o.RunRecord, o.Objectives = resp.Served, resp.UncertainSpace, resp.RunRecord, resp.Objectives
	o.Digest = Digest(&resp)
	if err := CheckAnswer(r, &resp); err != nil {
		o.Err = fmt.Errorf("request %d: %w", r.ID, err)
	}
	return o
}

// observe reports an outcome within noise of the prediction of a recorded
// answer and checks that the ledger joined it to that run.
func (c *Client) observe(ci int, run string, predicted map[string]float64, noise float64) Outcome {
	o := Outcome{ID: -1, Observe: true, Start: time.Now()}
	actual := make(map[string]float64, len(predicted))
	for k, v := range predicted {
		if k == "latency" {
			v *= 1 + noise
		}
		actual[k] = v
	}
	status, body, lat, err := c.post(ci, "/observe", service.ObserveRequest{Run: run, Actual: actual})
	o.Lat, o.End = lat, o.Start.Add(lat)
	switch {
	case err != nil:
		o.Err = fmt.Errorf("observe %s: transport: %w", run, err)
	case status != http.StatusOK:
		o.Err = fmt.Errorf("observe %s: status %d: %s", run, status, strings.TrimSpace(string(body)))
	default:
		var resp service.ObserveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			o.Err = fmt.Errorf("observe %s: decoding answer: %w", run, err)
		} else if resp.Pair.Run != run {
			o.Err = fmt.Errorf("observe %s: joined to run %q", run, resp.Pair.Run)
		}
	}
	return o
}

// knobs maps each batch knob to its bounds.
var knobs = func() map[string][2]float64 {
	m := map[string][2]float64{}
	for _, v := range spark.BatchSpace().Vars {
		lo, hi := v.Min, v.Max
		if lo == 0 && hi == 0 {
			hi = 1 // booleans
		}
		m[v.Name] = [2]float64{lo, hi}
	}
	return m
}()

// checkConfig verifies every knob of a configuration lies within its
// bounds. Pipeline keys carry a "<stage>." prefix before the knob name.
func checkConfig(conf map[string]float64, wantKnobs int) error {
	if len(conf) != wantKnobs {
		return fmt.Errorf("config has %d knobs, want %d", len(conf), wantKnobs)
	}
	for k, v := range conf {
		name := k
		if i := strings.Index(k, "spark."); i > 0 {
			name = k[i:]
		}
		b, ok := knobs[name]
		if !ok {
			return fmt.Errorf("config names unknown knob %q", k)
		}
		if math.IsNaN(v) || v < b[0] || v > b[1] {
			return fmt.Errorf("knob %q = %v outside [%v, %v]", k, v, b[0], b[1])
		}
	}
	return nil
}

// CheckAnswer checks an /optimize answer against its request: the served
// disposition the workload was designed for, knobs within bounds, finite
// objectives, uncertain space within [0,1], and per-stage configurations
// for pipelines.
func CheckAnswer(r Req, resp *service.OptimizeResponse) error {
	if resp.Served != r.Want {
		return fmt.Errorf("served %q, want %q", resp.Served, r.Want)
	}
	if !(resp.UncertainSpace >= 0 && resp.UncertainSpace <= 1) {
		return fmt.Errorf("uncertain_space %v outside [0,1]", resp.UncertainSpace)
	}
	if len(resp.Objectives) != 2 {
		return fmt.Errorf("answer has %d objectives, want 2", len(resp.Objectives))
	}
	for k, v := range resp.Objectives {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("objective %q = %v", k, v)
		}
	}
	n := len(knobs)
	if len(r.Body.Stages) == 0 {
		if resp.StageConfigs != nil {
			return errors.New("flat request answered with stage_configs")
		}
		return checkConfig(resp.Config, n)
	}
	stages := len(r.Body.Stages)
	shared := len(r.Body.SharedKnobs)
	if err := checkConfig(resp.Config, shared+stages*(n-shared)); err != nil {
		return err
	}
	if len(resp.StageConfigs) != stages {
		return fmt.Errorf("pipeline answer has %d stage_configs, want %d", len(resp.StageConfigs), stages)
	}
	for name, sc := range resp.StageConfigs {
		if err := checkConfig(sc, n); err != nil {
			return fmt.Errorf("stage %q: %w", name, err)
		}
	}
	return nil
}

// Digest fingerprints the deterministic part of an answer: configuration,
// objectives, stage configurations and uncertain space. The solver is
// bit-deterministic, so one request gets one digest in every run, traced or
// not.
func Digest(resp *service.OptimizeResponse) string {
	b, _ := json.Marshal(struct {
		C map[string]float64            `json:"c"`
		O map[string]float64            `json:"o"`
		S map[string]map[string]float64 `json:"s,omitempty"`
		U float64                       `json:"u"`
	}{resp.Config, resp.Objectives, resp.StageConfigs, resp.UncertainSpace})
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

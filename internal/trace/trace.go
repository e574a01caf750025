// Package trace implements the model server's training-data collection
// (§V step 1): a store of runtime traces keyed by workload, a heuristic
// sampler biased toward Spark best practices, and a Bayesian-optimization
// sampler that explores configurations likely to minimize latency — the two
// strategies the paper uses to sample hundreds of configurations for each
// offline workload (versus 6–30 for online workloads).
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"

	"repro/internal/linalg"
	"repro/internal/model/gp"
	"repro/internal/space"
)

// Entry is one observed run of a workload under a configuration.
type Entry struct {
	Workload   string             `json:"workload"`
	Conf       space.Values       `json:"conf"`
	X          []float64          `json:"x"` // encoded configuration
	Objectives map[string]float64 `json:"objectives"`
	Metrics    []float64          `json:"metrics"` // runtime trace vector
}

// Store is a concurrency-safe trace repository.
type Store struct {
	mu      sync.RWMutex
	entries []Entry
	byWl    map[string][]int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byWl: make(map[string][]int)}
}

// Add appends an entry.
func (s *Store) Add(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byWl[e.Workload] = append(s.byWl[e.Workload], len(s.entries))
	s.entries = append(s.entries, e)
}

// Len returns the total number of entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// ForWorkload returns copies of all entries for the workload.
func (s *Store) ForWorkload(w string) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx := s.byWl[w]
	out := make([]Entry, len(idx))
	for i, j := range idx {
		out[i] = s.entries[j]
	}
	return out
}

// Workloads lists the workloads present, sorted.
func (s *Store) Workloads() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byWl))
	for w := range s.byWl {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Save writes the store to path as JSON.
func (s *Store) Save(path string) error {
	s.mu.RLock()
	blob, err := json.Marshal(s.entries)
	s.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("trace: marshal: %w", err)
	}
	return os.WriteFile(path, blob, 0o644)
}

// Load reads a store previously written by Save.
func Load(path string) (*Store, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(blob, &entries); err != nil {
		return nil, fmt.Errorf("trace: unmarshal: %w", err)
	}
	st := NewStore()
	for _, e := range entries {
		st.Add(e)
	}
	return st, nil
}

// Runner executes one configuration of a workload, returning the observed
// objective values and the runtime metric vector.
type Runner func(conf space.Values, seed int64) (objectives map[string]float64, metrics []float64, err error)

// HeuristicSample draws n configurations: half uniform over the lattice and
// half perturbations around the provided center (typically the default or an
// expert configuration) — the "heuristic sampling based on Spark best
// practices" of §V.
func HeuristicSample(spc *space.Space, center space.Values, n int, rng *rand.Rand) ([]space.Values, error) {
	cx, err := spc.Encode(center)
	if err != nil {
		return nil, err
	}
	out := make([]space.Values, 0, n)
	for i := 0; i < n; i++ {
		x := make([]float64, spc.Dim())
		if i%2 == 0 {
			for d := range x {
				x[d] = rng.Float64()
			}
		} else {
			for d := range x {
				x[d] = linalg.Clamp(cx[d]+0.25*rng.NormFloat64(), 0, 1)
			}
		}
		vals, err := spc.Decode(x)
		if err != nil {
			return nil, err
		}
		out = append(out, vals)
	}
	return out, nil
}

// Collect runs the sampler output through the runner and records entries.
func Collect(st *Store, spc *space.Space, workload string, confs []space.Values, run Runner, seed int64) error {
	for i, conf := range confs {
		objs, metrics, err := run(conf, seed+int64(i))
		if err != nil {
			return fmt.Errorf("trace: run %d of %s: %w", i, workload, err)
		}
		x, err := spc.Encode(conf)
		if err != nil {
			return err
		}
		st.Add(Entry{Workload: workload, Conf: conf, X: x, Objectives: objs, Metrics: metrics})
	}
	return nil
}

// BOSample extends the workload's traces with n configurations chosen by
// Bayesian optimization (GP + expected improvement) minimizing the named
// objective (§V: "Bayesian optimization [26] for exploring configurations
// that are likely to minimize latency"). The store must already hold at
// least two entries for the workload to seed the surrogate.
func BOSample(st *Store, spc *space.Space, workload, objective string, run Runner, n int, rng *rand.Rand) error {
	for i := 0; i < n; i++ {
		entries := st.ForWorkload(workload)
		if len(entries) < 2 {
			return fmt.Errorf("trace: BOSample needs >= 2 seed entries for %s", workload)
		}
		X := make([][]float64, len(entries))
		y := make([]float64, len(entries))
		best := math.Inf(1)
		for j, e := range entries {
			X[j] = e.X
			y[j] = e.Objectives[objective]
			if y[j] < best {
				best = y[j]
			}
		}
		g, err := gp.Fit(X, y, gp.Config{MLEIters: 15})
		if err != nil {
			return fmt.Errorf("trace: BO surrogate: %w", err)
		}
		// Expected-improvement search over random lattice candidates.
		var bestX []float64
		bestEI := -1.0
		for c := 0; c < 128; c++ {
			x := make([]float64, spc.Dim())
			for d := range x {
				x[d] = rng.Float64()
			}
			rx, err := spc.Round(x)
			if err != nil {
				return err
			}
			mu, v := g.PredictVar(rx)
			ei := expectedImprovement(best, mu, math.Sqrt(v))
			if ei > bestEI {
				bestEI = ei
				bestX = rx
			}
		}
		conf, err := spc.Decode(bestX)
		if err != nil {
			return err
		}
		if err := Collect(st, spc, workload, []space.Values{conf}, run, int64(1000+i)); err != nil {
			return err
		}
	}
	return nil
}

// expectedImprovement is the standard EI acquisition for minimization.
func expectedImprovement(best, mu, sigma float64) float64 {
	if sigma < 1e-12 {
		if mu < best {
			return best - mu
		}
		return 0
	}
	z := (best - mu) / sigma
	return (best-mu)*stdNormCDF(z) + sigma*stdNormPDF(z)
}

func stdNormCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }
func stdNormPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }

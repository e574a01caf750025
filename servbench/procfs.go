package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat and
// /proc/stat; it is 100 on every Linux platform Go supports.
const clockTicks = 100

// ProcCPU parses /proc/<pid>/stat text and returns the process's user plus
// system CPU time in clock ticks (fields 14 and 15). The command name
// (field 2) may hold spaces and parentheses, so fields are counted from the
// last ')'.
func ProcCPU(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// ProcHWM parses /proc/<pid>/status text and returns VmHWM, the peak
// resident set size, in KiB.
func ProcHWM(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// CPUTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type CPUTimes struct {
	Total, Steal uint64
}

// SystemCPU parses /proc/stat text and returns the aggregate cpu line's
// total and steal ticks. Guest time is already included in user time, so
// only the first eight fields (user … steal) are summed.
func SystemCPU(stat string) (CPUTimes, error) {
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return CPUTimes{}, fmt.Errorf("proc stat: cpu line has %d fields, want at least 9", len(f))
		}
		var t CPUTimes
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return CPUTimes{}, fmt.Errorf("proc stat cpu field %d: %w", i, err)
			}
			t.Total += v
			if i == 8 {
				t.Steal = v
			}
		}
		return t, nil
	}
	return CPUTimes{}, fmt.Errorf("proc stat: no aggregate cpu line")
}

// StealFrac returns the share of CPU time stolen by the hypervisor between
// two /proc/stat readings (0 when no time passed).
func StealFrac(a, b CPUTimes) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

func pidCPU(pid int) (uint64, error) {
	s, err := readFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return ProcCPU(s)
}

func pidHWM(pid int) (uint64, error) {
	s, err := readFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return ProcHWM(s)
}

func systemCPU() (CPUTimes, error) {
	s, err := readFile("/proc/stat")
	if err != nil {
		return CPUTimes{}, err
	}
	return SystemCPU(s)
}

var refSink uint64

// The yardsticks time fixed loops, before set-up and after the probes, so
// that a run's figures can be read against the machine's speed at the time.
// Each returns the fastest of three repeats in ms. The host's other tenants
// slow them unequally, so there are three: intRef is a chain of dependent
// integer multiplies and sees clock speed and steal; fpRef is independent
// floating-point multiply-adds, like the GP kernels and MOGD, and also sees
// a busy sibling hyperthread; memRef is dependent loads over a table far
// larger than the caches, like GC marking, and sees cache and memory
// contention.
func fastest(f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t := time.Now()
		f()
		best = math.Min(best, float64(time.Since(t))/float64(time.Millisecond))
	}
	return best
}

func intRef() float64 {
	return fastest(func() {
		x := refSink | 1
		for j := 0; j < 20_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		refSink += x
	})
}

func fpRef() float64 {
	const n = 64
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%7)+0.5, float64(i%5)+0.25
	}
	return fastest(func() {
		for r := 0; r < 40; r++ {
			for i := 0; i < n; i++ {
				for k := 0; k < n; k++ {
					aik := a[i*n+k]
					for j := 0; j < n; j++ {
						c[i*n+j] += aik * b[k*n+j]
					}
				}
			}
		}
		refSink += uint64(c[n+1])
	})
}

var (
	memOnce  sync.Once
	memTable []uint32
)

func memRef() float64 {
	memOnce.Do(func() {
		// One cycle through 16M slots (64 MiB), by Sattolo's algorithm.
		memTable = make([]uint32, 1<<24)
		for i := range memTable {
			memTable[i] = uint32(i)
		}
		rng := rand.New(rand.NewSource(1))
		for i := len(memTable) - 1; i > 0; i-- {
			j := rng.Intn(i)
			memTable[i], memTable[j] = memTable[j], memTable[i]
		}
	})
	return fastest(func() {
		var x uint32
		for j := 0; j < 250_000; j++ {
			x = memTable[x]
		}
		refSink += uint64(x)
	})
}

// MachineRef is one reading of the three yardsticks, in ms.
type MachineRef struct {
	Int float64 `json:"int"`
	FP  float64 `json:"fp"`
	Mem float64 `json:"mem"`
}

func machineRef() MachineRef {
	return MachineRef{Int: intRef(), FP: fpRef(), Mem: memRef()}
}

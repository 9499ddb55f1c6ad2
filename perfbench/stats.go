package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule, sorting xs in place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// micros converts a duration to float microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// vmHWM returns the peak resident set size of process pid (0 for this
// process) in MB, from the VmHWM line of /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}

// runtimeMeter prices the program's calls from runtime/metrics: the
// heap allocations made inside the calls it brackets with begin and
// end, and the GC share of the process's CPU since it was created. A
// nil meter does nothing, so untraced runs pay nothing for it.
type runtimeMeter struct {
	samples             []metrics.Sample
	objs, bytes         uint64
	ops                 int
	openObjs, openBytes uint64
	gc0, cpu0           float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func newRuntimeMeter() *runtimeMeter {
	m := &runtimeMeter{samples: make([]metrics.Sample, len(runtimeMetricNames))}
	for i, name := range runtimeMetricNames {
		m.samples[i].Name = name
	}
	metrics.Read(m.samples)
	m.gc0, m.cpu0 = m.samples[2].Value.Float64(), m.samples[3].Value.Float64()
	return m
}

func (m *runtimeMeter) begin() {
	if m == nil {
		return
	}
	metrics.Read(m.samples)
	m.openObjs, m.openBytes = m.samples[0].Value.Uint64(), m.samples[1].Value.Uint64()
}

func (m *runtimeMeter) end() {
	if m == nil {
		return
	}
	metrics.Read(m.samples)
	m.objs += m.samples[0].Value.Uint64() - m.openObjs
	m.bytes += m.samples[1].Value.Uint64() - m.openBytes
	m.ops++
}

// runtimeCost is the per-call allocation cost and the GC share of CPU.
type runtimeCost struct {
	allocsPerOp, bytesPerOp, gcCPUFraction float64
}

func (m *runtimeMeter) cost() runtimeCost {
	var c runtimeCost
	if m == nil {
		return c
	}
	if m.ops > 0 {
		c.allocsPerOp = float64(m.objs) / float64(m.ops)
		c.bytesPerOp = float64(m.bytes) / float64(m.ops)
	}
	metrics.Read(m.samples)
	if cpu := m.samples[3].Value.Float64() - m.cpu0; cpu > 0 {
		c.gcCPUFraction = (m.samples[2].Value.Float64() - m.gc0) / cpu
	}
	return c
}

// hostInfo identifies the machine and build a result came from.
// Results are comparable only between equal hosts; the commit is
// recorded but not part of the identity, since comparing commits on
// one host is the point of the benchmark.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// sameHost reports whether two results may be compared.
func (h hostInfo) sameHost(o hostInfo) bool {
	return h.CPUModel == o.CPUModel && h.NProc == o.NProc &&
		h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

func readHost() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// A checkout without git history (an exported tree) has no commit
	// to report; that is not an error. --git-dir keeps git from
	// searching the directories above the checkout.
	if out, err := exec.Command("git", "--git-dir=.git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

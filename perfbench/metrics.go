package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the q-quantile of xs (linear interpolation between
// order statistics). It refuses a percentile with fewer than minTail
// samples beyond it, so a p95 needs at least 182 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v of %d samples", q, n)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if beyond := n - 1 - lo; beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minTail, beyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if lo == n-1 {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// samplesFor returns the fewest samples percentile accepts for q.
func samplesFor(q float64) int {
	n := 1
	for n-1-int(math.Floor(q*float64(n-1))) < minTail {
		n++
	}
	return n
}

// median is the 0.5-quantile; it needs no tail (any non-empty sample).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricName is the pattern every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects named metrics in insertion order.
type report struct {
	names []string
	m     map[string]metric
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name string, value float64, unit string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("bad metric name %q", name))
	}
	if _, dup := r.m[name]; !dup {
		r.names = append(r.names, name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.m[name] = metric{Value: value, Unit: unit}
}

// heapSampler tracks the peak Go heap (bytes in live and not yet swept
// heap objects) by polling runtime/metrics. Peaks are taken per pass:
// when garbage collection happens to run shifts one pass's peak, and
// the median over passes absorbs that where a run-wide maximum would
// not.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			h.mu.Lock()
			if v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// takePeak returns the peak in MiB since the previous call.
func (h *heapSampler) takePeak() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / (1 << 20)
}

func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}

// cpuTicks reads the host's cumulative CPU time from /proc/stat, in
// ticks summed over CPUs: the time its vCPUs were busy or wanted to be
// (user, nice, system, irq, softirq, steal) and the part of it the
// hypervisor ran someone else (steal). It returns zeros where
// /proc/stat is unavailable, and the share then reads 1.
func cpuTicks() (busy, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return 0, 0
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]
}

// hostInfo records what a result was measured on.
type hostInfo struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
}

func readHost() hostInfo {
	h := hostInfo{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    "unknown",
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
		VCSModified: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value
			}
		}
	}
	return h
}

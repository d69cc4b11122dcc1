package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
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

// tailPercentile is the highest whole percentile of a sample of n values
// that still leaves at least 10 values beyond it; 50 when n is too small
// for any percentile above the median to qualify.
func tailPercentile(n int) int {
	if n <= 0 {
		return 50
	}
	p := 100 * (n - 10) / n
	if p < 50 {
		return 50
	}
	return p
}

// quantile is the nearest-rank p-quantile of xs: the smallest value with
// at least a share p of xs at or below it; 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p*float64(len(s)) - 1e-9)) // the epsilon absorbs rounding in p·n
	return s[min(max(r, 1), len(s))-1]
}

// runtimeSample is a snapshot of the process counters a pass is charged
// with: Go runtime metrics plus the kernel's CPU-time accounting.
type runtimeSample struct {
	at         time.Time
	allocBytes float64
	allocObjs  float64
	gcCycles   float64
	gcCPU      float64
	procCPU    float64
}

var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func metricValue(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// heapAllocBytes returns the cumulative bytes allocated on the heap.
func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: sampleNames[0]}}
	metrics.Read(s)
	return metricValue(s[0].Value)
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return runtimeSample{
		at:         time.Now(),
		allocBytes: metricValue(s[0].Value),
		allocObjs:  metricValue(s[1].Value),
		gcCycles:   metricValue(s[2].Value),
		gcCPU:      metricValue(s[3].Value),
		procCPU:    cpu,
	}
}

// startPass returns the process to a comparable state before a timed pass
// (an empty heap handed back to the kernel and a reset peak-RSS mark) and
// samples the counters the pass is charged against.
func startPass() runtimeSample {
	settle()
	resetPeakRSS()
	return readRuntime()
}

// settle collects all garbage and hands the free heap back to the kernel,
// so every timed phase starts from the same heap state.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS resets the kernel's VmHWM mark so the next read reports the
// peak of the pass alone. It is best-effort: without the reset the mark is
// the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// passCost is what one timed pass cost the host.
type passCost struct {
	wall      float64 // s
	allocMB   float64
	allocObjs float64
	gcCycles  float64
	gcCPUFrac float64
	cpuUtil   float64 // process CPU ÷ (wall × workers)
	peakRSSMB float64
}

func endPass(start runtimeSample, workers int) passCost {
	end := readRuntime()
	wall := end.at.Sub(start.at).Seconds()
	cpu := end.procCPU - start.procCPU
	c := passCost{
		wall:      wall,
		allocMB:   (end.allocBytes - start.allocBytes) / 1e6,
		allocObjs: end.allocObjs - start.allocObjs,
		gcCycles:  end.gcCycles - start.gcCycles,
		peakRSSMB: peakRSSMB(),
	}
	if cpu > 0 {
		c.gcCPUFrac = (end.gcCPU - start.gcCPU) / cpu
	}
	if wall > 0 && workers > 0 {
		c.cpuUtil = cpu / (wall * float64(workers))
	}
	return c
}

// medianOf returns the median of one field over the passes.
func medianOf(passes []passCost, field func(passCost) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = field(p)
	}
	return median(xs)
}

// clock measures a call: its wall time and, optionally, the heap bytes it
// allocated (exact for the single-caller loops this benchmark runs).
type clock struct {
	t0     time.Time
	alloc0 float64
	allocs bool
}

func startClock(allocs bool) clock {
	c := clock{allocs: allocs}
	if allocs {
		c.alloc0 = heapAllocBytes()
	}
	c.t0 = time.Now()
	return c
}

// stop returns the elapsed time and the MB allocated since start (0 when
// allocation tracking was off).
func (c clock) stop() (time.Duration, float64) {
	d := time.Since(c.t0)
	if !c.allocs {
		return d, 0
	}
	return d, (heapAllocBytes() - c.alloc0) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

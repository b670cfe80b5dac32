package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a phase's figures; the first phase to set a name
// keeps it, so a workload's primary phase wins over its reference
// phases.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if _, ok := m[name]; ok {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func (m metricSet) merge(o metricSet) {
	for k, v := range o {
		m.set(k, v.Value, v.Unit)
	}
}

// percentile returns the q-quantile (0..1) of sorted, by the
// nearest-rank rule.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// procSample is the process-wide resource state at one instant.
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user + system, from getrusage
	mallocs uint64
	gcCPU   float64 // runtime estimate of GC CPU seconds
	allCPU  float64 // runtime estimate of all CPU seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	s := procSample{wall: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs}
	if cpuMetrics[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuMetrics[0].Value.Float64()
		s.allCPU = cpuMetrics[1].Value.Float64()
	}
	return s
}

// procDelta is the resource use between two samples.
type procDelta struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	gcCPU   float64
	allCPU  float64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs,
		gcCPU: b.gcCPU - a.gcCPU, allCPU: b.allCPU - a.allCPU}
}

func (d *procDelta) add(o procDelta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.mallocs += o.mallocs
	d.gcCPU += o.gcCPU
	d.allCPU += o.allCPU
}

// gcFrac is the share of the process's CPU the garbage collector took.
func (d procDelta) gcFrac() float64 {
	if d.allCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.allCPU
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// opCost times fn over iters calls on one P and reports ns and heap
// allocations per call, the way testing.AllocsPerRun counts them.
func opCost(iters int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < iters/10+1; i++ { // warm caches and pools
		fn(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(el.Nanoseconds()) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

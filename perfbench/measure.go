package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// counters.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPUSeconds         float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPUSeconds = s[2].Value.Float64()
	}
	return r
}

// addRuntimeLayers records the runtime deltas between two samples.
func addRuntimeLayers(o *outcome, a, b runtimeSample) {
	o.layers["runtime.alloc_gib"] = metric{float64(b.allocBytes-a.allocBytes) / (1 << 30), "GiB"}
	o.layers["runtime.gc_cpu_s"] = metric{b.gcCPUSeconds - a.gcCPUSeconds, "s"}
	o.layers["runtime.gc_cycles"] = metric{float64(b.gcCycles - a.gcCycles), "count"}
}

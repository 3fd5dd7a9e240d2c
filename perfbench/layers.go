package main

import (
	"strings"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/server"
)

// passTimes is what one pass of any workload measured, in the shared
// vocabulary of the end-to-end metrics (README.md defines each one per
// workload). Times are host times; each speed factor scales the times
// of its interval to the reference speed (see speedProbe). Set-up has
// no factor: it is too short for the probe to read its speed.
type passTimes struct {
	setup     float64  // s, set-up before the timed region
	wall      float64  // s, the primary timed pass
	warm      float64  // s, the same work repeated on warm state
	cpu       float64  // s, process CPU over primary + repeat
	simInst   float64  // simulated instructions in the primary pass
	completed float64  // operations completed in the primary pass
	ops       []opSpan // every operation of the primary pass

	wallF, warmF, cpuF float64
	opMs, opHostMs     []float64 // ops' latencies, at reference speed and host
}

// timedPass marks the boundaries of a pass's set-up, primary and repeat
// intervals and turns them into the pass's times and speed factors.
type timedPass struct {
	p     *speedProbe
	marks [4]time.Time // set-up start, primary start, repeat start, end
	cpu0  float64
}

func startPass(p *speedProbe) *timedPass {
	p.tick()
	return &timedPass{p: p, marks: [4]time.Time{time.Now()}}
}

// primary ends the set-up and starts the timed region. Its probe tick
// falls in the timed region, so set-up holds no probe work.
func (tp *timedPass) primary() {
	tp.marks[1] = time.Now()
	tp.cpu0 = cpuSeconds()
	tp.p.tick()
}

// repeat ends the primary pass and starts the repeat pass.
func (tp *timedPass) repeat() {
	tp.p.tick()
	tp.marks[2] = time.Now()
}

// done ends the repeat pass and fills in t's times and factors.
func (tp *timedPass) done(t *passTimes) {
	tp.p.tick()
	tp.marks[3] = time.Now()
	t.cpu = cpuSeconds() - tp.cpu0
	m := tp.marks
	t.setup, t.wall, t.warm = m[1].Sub(m[0]).Seconds(), m[2].Sub(m[1]).Seconds(), m[3].Sub(m[2]).Seconds()
	t.wallF, t.warmF = tp.p.factor(m[1], m[2]), tp.p.factor(m[2], m[3])
	t.cpuF = tp.p.factor(m[1], m[3])
	for _, op := range t.ops {
		host := float64(op.end.Sub(op.start)) / 1e6
		t.opHostMs = append(t.opHostMs, host)
		t.opMs = append(t.opMs, host*tp.p.factor(op.start.Add(-opWindow), op.end.Add(opWindow)))
	}
}

// endToEnd turns passes into the end-to-end metrics, all but setup_s
// (host time) and peak_rss_mib at the reference speed: medians of the
// per-pass numbers, and latency
// percentiles. With repeated set, every pass runs the same operations in
// the same order, so each operation's latency is first its median over
// the passes and the percentiles are over operations; otherwise they are
// over every operation of every pass. It also returns the per-pass
// numbers behind the medians, with the host times and speed factors.
func endToEnd(ps []passTimes, peakRSS float64, repeated bool) (map[string]metric, map[string]any) {
	var setup, wall, warm, cpu, minst, rate, lat, hostLat []float64
	host := map[string][]float64{}
	for _, p := range ps {
		setup = append(setup, p.setup)
		wall = append(wall, p.wall*p.wallF)
		warm = append(warm, p.warm*p.warmF)
		cpu = append(cpu, p.cpu*p.cpuF)
		minst = append(minst, p.simInst/(p.wall*p.wallF)/1e6)
		rate = append(rate, p.completed/(p.wall*p.wallF))
		if !repeated {
			lat = append(lat, p.opMs...)
			hostLat = append(hostLat, p.opHostMs...)
		}
		for name, v := range map[string]float64{"setup_s": p.setup, "wall_s": p.wall, "warm_s": p.warm, "cpu_s": p.cpu,
			"speed_factor_wall": p.wallF, "speed_factor_warm": p.warmF} {
			host[name] = append(host[name], v)
		}
	}
	if repeated {
		lat, hostLat = perOpMedians(ps, true), perOpMedians(ps, false)
	}
	values := map[string]float64{
		"setup_s":         median(setup),
		"wall_s":          median(wall),
		"warm_s":          median(warm),
		"sim_minst_per_s": median(minst),
		"jobs_per_s":      median(rate),
		"job_p50_ms":      percentile(lat, 0.50),
		"job_p99_ms":      percentile(lat, 0.99),
		"cpu_s":           median(cpu),
		"peak_rss_mib":    peakRSS,
	}
	out := map[string]metric{}
	for name, v := range values {
		out[name] = metric{v, e2eUnits[name]}
	}
	host["job_p50_ms"] = []float64{percentile(hostLat, 0.50)}
	host["job_p99_ms"] = []float64{percentile(hostLat, 0.99)}
	samples := map[string]any{
		"at_reference_speed": map[string][]float64{"wall_s": wall, "warm_s": warm, "cpu_s": cpu, "sim_minst_per_s": minst, "jobs_per_s": rate},
		"host":               host,
	}
	return out, samples
}

// perOpMedians is each operation's median latency over the passes, at
// the reference speed or host.
func perOpMedians(ps []passTimes, atRef bool) []float64 {
	var out []float64
	for j := range ps[0].opMs {
		var xs []float64
		for _, p := range ps {
			if atRef {
				xs = append(xs, p.opMs[j])
			} else {
				xs = append(xs, p.opHostMs[j])
			}
		}
		out = append(out, median(xs))
	}
	return out
}

// e2eUnits is every end-to-end metric with its unit.
var e2eUnits = map[string]string{
	"setup_s": "s", "wall_s": "s", "warm_s": "s", "sim_minst_per_s": "Minst/s", "jobs_per_s": "jobs/s",
	"job_p50_ms": "ms", "job_p99_ms": "ms", "cpu_s": "s", "peak_rss_mib": "MiB",
}

const overheadPrefix = "tracing.overhead."

// layerNames lists every per-layer metric with its unit; a traced run
// prints all of them, 0 where a layer does no work on the workload.
func layerNames() map[string]string {
	m := map[string]string{
		"engine.sim_hits": "count", "engine.sim_misses": "count", "engine.sim_disk_hits": "count",
		"engine.ana_misses": "count", "engine.sched_misses": "count", "engine.trace_misses": "count",
		"engine.hit_rate": "ratio", "engine.cache_mib": "MiB", "engine.evictions": "count",

		"machine.sim_s": "s", "machine.sim_jobs": "count", "machine.sim_minst_per_cpu_s": "Minst/s",
		"machine.replay_busy_s": "s", "machine.events_elided": "count", "machine.grid_shared": "count",
		"machine.windows": "count", "machine.window_ms_p50": "ms", "machine.window_ms_p99": "ms",

		"trace.store_mib": "MiB", "trace.scan_s": "s", "trace.scan_minst_per_s": "Minst/s",
		"workload.gen_s": "s", "workload.gen_minst_per_s": "Minst/s",
		"critpath.analysis_s": "s", "critpath.analyses": "count",
		"listsched.sched_s": "s", "listsched.batches": "count",

		"server.submit_ms_p50": "ms", "server.submit_ms_p99": "ms",
		"server.queue_ms_p50": "ms", "server.queue_ms_p99": "ms",
		"server.cached.run_ms_p50": "ms", "server.fresh.run_ms_p50": "ms", "server.sweep.run_ms_p50": "ms",
		"server.result_ms_p50": "ms", "server.rejected": "count",

		"runtime.alloc_gib": "GiB", "runtime.gc_cpu_s": "s", "runtime.gc_cycles": "count",
		"engine.parallel_speedup": "x", "machine.piped_speedup": "x",
	}
	for _, name := range server.ExperimentNames() {
		m["experiments.cold."+name+"_s"] = "s"
		m["experiments.warm."+name+"_s"] = "s"
	}
	for e, unit := range e2eUnits {
		m[overheadPrefix+e] = unit
	}
	return m
}

// fillLayers sets the tracing overhead (traced pass minus untraced
// median) and gives every per-layer metric the workload did not set a
// zero. peak_rss_mib is the process's peak so far and the traced pass
// runs last, so its overhead is only a lower bound: 0 unless the traced
// pass rose above the untraced passes' peak.
func fillLayers(o *outcome) {
	for name, unit := range layerNames() {
		if _, ok := o.layers[name]; ok {
			continue
		}
		if e, ok := strings.CutPrefix(name, overheadPrefix); ok {
			o.layers[name] = metric{o.traced[e].Value - o.e2e[e].Value, unit}
			continue
		}
		o.layers[name] = metric{0, unit}
	}
}

// addSummary adds sign × b's work counters to a. CacheBytes, a level
// rather than a counter, keeps the larger of the two when adding and
// stays a's when subtracting.
func addSummary(a, b engine.Summary, sign int64) engine.Summary {
	if sign > 0 {
		a.CacheBytes = max(a.CacheBytes, b.CacheBytes)
	}
	a.SimHits += sign * b.SimHits
	a.SimDiskHits += sign * b.SimDiskHits
	a.SimMisses += sign * b.SimMisses
	a.AnaMisses += sign * b.AnaMisses
	a.SchedMisses += sign * b.SchedMisses
	a.TraceMisses += sign * b.TraceMisses
	a.SimJobs += sign * b.SimJobs
	a.SimWallNs += sign * b.SimWallNs
	a.SimInsts += sign * b.SimInsts
	a.AnaJobs += sign * b.AnaJobs
	a.AnaWallNs += sign * b.AnaWallNs
	a.SchedJobs += sign * b.SchedJobs
	a.SchedWallNs += sign * b.SchedWallNs
	a.Evictions += sign * b.Evictions
	a.ReplayBusyNs += sign * b.ReplayBusyNs
	a.EventsElided += sign * b.EventsElided
	a.GridShared += sign * b.GridShared
	return a
}

// addEngineLayers records the engine, machine, critpath and listsched
// metrics from the engine counters a traced pass moved.
func addEngineLayers(o *outcome, d engine.Summary) {
	set := func(name string, v float64) { o.layers[name] = metric{v, layerNames()[name]} }
	set("engine.sim_hits", float64(d.SimHits))
	set("engine.sim_misses", float64(d.SimMisses))
	set("engine.sim_disk_hits", float64(d.SimDiskHits))
	set("engine.ana_misses", float64(d.AnaMisses))
	set("engine.sched_misses", float64(d.SchedMisses))
	set("engine.trace_misses", float64(d.TraceMisses))
	if total := d.SimHits + d.SimDiskHits + d.SimMisses; total > 0 {
		set("engine.hit_rate", float64(d.SimHits+d.SimDiskHits)/float64(total))
	}
	set("engine.cache_mib", float64(d.CacheBytes)/(1<<20))
	set("engine.evictions", float64(d.Evictions))
	set("machine.sim_s", float64(d.SimWallNs)/1e9)
	set("machine.sim_jobs", float64(d.SimJobs))
	if d.SimWallNs > 0 {
		set("machine.sim_minst_per_cpu_s", float64(d.SimInsts)/float64(d.SimWallNs)*1e3)
	}
	set("machine.replay_busy_s", float64(d.ReplayBusyNs)/1e9)
	set("machine.events_elided", float64(d.EventsElided))
	set("machine.grid_shared", float64(d.GridShared))
	set("critpath.analysis_s", float64(d.AnaWallNs)/1e9)
	set("critpath.analyses", float64(d.AnaJobs))
	set("listsched.sched_s", float64(d.SchedWallNs)/1e9)
	set("listsched.batches", float64(d.SchedJobs))
}

// addGenLayers records the workload generator's time and throughput
// from its spans.
func addGenLayers(o *outcome, spans []float64, insts int) {
	var total float64
	for _, d := range spans {
		total += d
	}
	o.layers["workload.gen_s"] = metric{total, "s"}
	if total > 0 {
		o.layers["workload.gen_minst_per_s"] = metric{float64(insts) / total / 1e6, "Minst/s"}
	}
}

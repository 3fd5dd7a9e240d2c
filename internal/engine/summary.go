package engine

import (
	"fmt"
	"io"

	"clustersim/internal/faultinject"
	"clustersim/internal/stats"
)

// Summary is a point-in-time view of the engine's work and cache
// effectiveness.
type Summary struct {
	Workers int

	TraceHits     int64
	TraceMisses   int64
	SimHits       int64
	SimDiskHits   int64
	SimMisses     int64
	AnaHits       int64
	AnaDiskHits   int64
	AnaMisses     int64
	SchedHits     int64
	SchedDiskHits int64
	SchedMisses   int64
	DiskErrors    int64

	// SimJobs/SimWallNs/SimInsts describe executed (non-cached) jobs;
	// wall time sums across workers, so throughput is per CPU-second.
	SimJobs   int64
	SimWallNs int64
	SimInsts  int64

	TraceJobs   int64
	TraceWallNs int64

	// AnaJobs/AnaWallNs describe executed (non-cached) analysis passes.
	AnaJobs   int64
	AnaWallNs int64

	// SchedJobs/SchedWallNs describe executed (non-cached) fused
	// schedule batches (one job may cover many variants).
	SchedJobs   int64
	SchedWallNs int64

	CacheBytes   int64
	CacheEntries int
	Evictions    int64

	// DiskErr is set when the configured cache directory was unusable.
	DiskErr error

	// Robustness counters (see DESIGN.md "Failure model & recovery").
	// FaultsInjected is global across engines (chaos injection is
	// process-wide); the rest are this engine's.
	FaultsInjected    int64
	DiskRetries       int64
	Quarantines       int64
	DiskDegraded      bool
	JobDeadlineMisses int64

	// Parallel replay layer (see DESIGN.md "Parallel replay").
	// ReplayWorkers is the configured intra-job fan-out bound;
	// ReplayBusyNs sums wall time inside per-variant replays across
	// replay workers.
	ReplayWorkers int
	ReplayBusyNs  int64
	// EventsElided and GridShared are always 0: every replay keeps its
	// full event log and no prediction memos are shared. They remain
	// because perfbench reports them as layer metrics.
	EventsElided int64
	GridShared   int64
}

// SimInstsPerSec is the simulated-instruction throughput of executed
// jobs (0 when nothing ran).
func (s Summary) SimInstsPerSec() float64 {
	if s.SimWallNs == 0 {
		return 0
	}
	return float64(s.SimInsts) / (float64(s.SimWallNs) / 1e9)
}

// HitRate is the fraction of simulation submissions served without
// running (memory, singleflight or disk).
func (s Summary) HitRate() float64 {
	total := s.SimHits + s.SimDiskHits + s.SimMisses
	if total == 0 {
		return 0
	}
	return float64(s.SimHits+s.SimDiskHits) / float64(total)
}

// Summary snapshots the engine.
func (e *Engine) Summary() Summary {
	s := Summary{
		Workers:       e.workers,
		TraceHits:     e.traces.hit.Load(),
		TraceMisses:   e.traces.miss.Load(),
		SimHits:       e.sims.hit.Load(),
		SimDiskHits:   e.sims.diskHit.Load(),
		SimMisses:     e.sims.miss.Load(),
		AnaHits:       e.analyses.hit.Load(),
		AnaDiskHits:   e.analyses.diskHit.Load(),
		AnaMisses:     e.analyses.miss.Load(),
		SchedHits:     e.scheds.hit.Load(),
		SchedDiskHits: e.scheds.diskHit.Load(),
		SchedMisses:   e.scheds.miss.Load(),
		DiskErrors:    e.cDiskErr.Load(),
		SimJobs:       e.sims.timer.Count(),
		SimWallNs:     e.sims.timer.TotalNs(),
		SimInsts:      e.cInsts.Load(),
		TraceJobs:     e.traces.timer.Count(),
		TraceWallNs:   e.traces.timer.TotalNs(),
		AnaJobs:       e.tAna.Count(),
		AnaWallNs:     e.tAna.TotalNs(),
		SchedJobs:     e.scheds.timer.Count(),
		SchedWallNs:   e.scheds.timer.TotalNs(),
		DiskErr:       e.diskErr,

		FaultsInjected:    faultinject.Snapshot().Total(),
		JobDeadlineMisses: e.cDeadlineMiss.Load(),

		ReplayWorkers: e.replayWorkers,
		ReplayBusyNs:  e.cReplayBusy.Load(),
	}
	if e.disk != nil {
		s.DiskRetries = e.disk.cRetry.Load()
		s.Quarantines = e.disk.cQuarantine.Load()
		s.DiskDegraded = e.disk.degraded.Load()
	}
	e.mu.Lock()
	s.CacheBytes = e.mem.bytes
	s.CacheEntries = e.mem.len()
	s.Evictions = e.mem.evicted
	e.mu.Unlock()
	return s
}

// RenderSummary writes the engine summary as a stats table plus
// throughput lines.
func (e *Engine) RenderSummary(w io.Writer) {
	s := e.Summary()
	t := &stats.Table{
		Title:   fmt.Sprintf("Engine summary (%d workers)", s.Workers),
		Columns: []string{"hits", "disk-hits", "misses", "hit-rate"},
		Decimal: 2,
	}
	simTotal := float64(s.SimHits + s.SimDiskHits + s.SimMisses)
	traceTotal := float64(s.TraceHits + s.TraceMisses)
	traceRate := 0.0
	if traceTotal > 0 {
		traceRate = float64(s.TraceHits) / traceTotal
	}
	simRate := 0.0
	if simTotal > 0 {
		simRate = s.HitRate()
	}
	anaTotal := float64(s.AnaHits + s.AnaDiskHits + s.AnaMisses)
	anaRate := 0.0
	if anaTotal > 0 {
		anaRate = float64(s.AnaHits+s.AnaDiskHits) / anaTotal
	}
	schedTotal := float64(s.SchedHits + s.SchedDiskHits + s.SchedMisses)
	schedRate := 0.0
	if schedTotal > 0 {
		schedRate = float64(s.SchedHits+s.SchedDiskHits) / schedTotal
	}
	t.AddRow("trace", float64(s.TraceHits), 0, float64(s.TraceMisses), traceRate)
	t.AddRow("sim", float64(s.SimHits), float64(s.SimDiskHits), float64(s.SimMisses), simRate)
	t.AddRow("analysis", float64(s.AnaHits), float64(s.AnaDiskHits), float64(s.AnaMisses), anaRate)
	t.AddRow("sched", float64(s.SchedHits), float64(s.SchedDiskHits), float64(s.SchedMisses), schedRate)
	t.Render(w)
	fmt.Fprintf(w, "sim jobs run: %d (%.2f cpu-s, %.2f Minst/s); traces generated: %d (%.2f cpu-s); analyses run: %d (%.2f cpu-s); schedule batches: %d (%.2f cpu-s)\n",
		s.SimJobs, float64(s.SimWallNs)/1e9, s.SimInstsPerSec()/1e6,
		s.TraceJobs, float64(s.TraceWallNs)/1e9,
		s.AnaJobs, float64(s.AnaWallNs)/1e9,
		s.SchedJobs, float64(s.SchedWallNs)/1e9)
	fmt.Fprintf(w, "cache: %d entries, %.1f MiB resident, %d evictions\n",
		s.CacheEntries, float64(s.CacheBytes)/(1<<20), s.Evictions)
	if s.DiskErr != nil {
		fmt.Fprintf(w, "disk cache disabled: %v\n", s.DiskErr)
	} else if s.DiskErrors > 0 {
		fmt.Fprintf(w, "disk cache errors (non-fatal): %d\n", s.DiskErrors)
	}
	// Robustness lines appear only when something actually happened, so
	// a healthy fault-free run's summary is unchanged.
	if s.FaultsInjected > 0 || s.DiskRetries > 0 || s.Quarantines > 0 || s.DiskDegraded {
		fmt.Fprintf(w, "robustness: %d faults injected, %d disk retries, %d entries quarantined",
			s.FaultsInjected, s.DiskRetries, s.Quarantines)
		if s.DiskDegraded {
			fmt.Fprintf(w, "; disk degraded to memory-only")
		}
		fmt.Fprintln(w)
	}
	if s.JobDeadlineMisses > 0 {
		fmt.Fprintf(w, "jobs over soft deadline: %d\n", s.JobDeadlineMisses)
	}
	if s.ReplayBusyNs > 0 {
		fmt.Fprintf(w, "replay: %d workers/job, %.2f cpu-s busy\n",
			s.ReplayWorkers, float64(s.ReplayBusyNs)/1e9)
	}
}

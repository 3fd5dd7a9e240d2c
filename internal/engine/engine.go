// Package engine is the sharded experiment engine: it decomposes figure
// drivers into (benchmark, cluster-config, policy-stack, forwarding,
// seed) simulation jobs, deduplicates identical jobs across figures via
// a content-addressed cache of generated traces, simulation results and
// the summaries derived from them, and executes work on a bounded
// worker pool with deterministic result ordering regardless of
// GOMAXPROCS or the pool size.
//
// The contract that makes caching sound is purity: every job is fully
// determined by its key (the workload generators, predictors and
// policies are all seeded from the key's fields), so a cached artifact
// is indistinguishable from a fresh computation. The determinism test
// suite in internal/experiments pins this property.
//
// Every submission, of one key (TraceCtx, AnalysisCtx, HarvestCtx) or
// of a batch (SimVariantsCtx, SchedulesCtx), takes one lookup path, in
// order:
//
//  1. an in-memory LRU of values (byte-budgeted; the least recently
//     used entries are dropped under pressure and recomputed, or reloaded
//     from disk, on their next request),
//  2. a flight table: a key another submission is computing is shared
//     from it, never computed twice at once,
//  3. an optional on-disk cache that survives across processes: results,
//     analyses and schedules as CRC-framed JSON records appended to one
//     segment file (traces are regenerated, never written); corrupt
//     entries are quarantined and recomputed, and repeated I/O failures
//     degrade the layer to memory-only,
//  4. one compute call for the batch's remaining keys.
//
// The engine never holds a machine. Simulations are the callers' jobs:
// a SimVariantsCtx compute runs its misses as one
// machine.SimulateVariants batch, and the Run behind an analysis or a
// harvest runs a one-variant batch and derives the product from the
// live machine inside it, before the batch recycles the machine.
//
// For failure semantics — the Transient/Corrupt/Fatal error taxonomy,
// fault injection, resuming from the disk cache, and cancellation — see
// DESIGN.md's "Failure model & recovery".
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/faultinject"
	"clustersim/internal/machine"
	"clustersim/internal/metrics"
	"clustersim/internal/trace"
)

// DefaultMaxCacheBytes bounds the in-memory cache when Config leaves it
// unset. The cache holds values, not machines: results and summaries
// cost a few KiB each, so traces (64 B/inst) and schedule harvests
// (25 B/inst, plus 4 B/inst per memoized issue order) dominate.
// Rendering every paper experiment at 12,000 instructions per benchmark
// holds about 24 MiB, which scales to under half the budget at the
// default 200,000.
const DefaultMaxCacheBytes = 1 << 30

// maxInjectedPanicRetries bounds how often MapCtx re-runs a job killed by
// an injected worker panic before surfacing the (transient) error.
const maxInjectedPanicRetries = 6

// Config configures an Engine.
type Config struct {
	// Workers bounds concurrently executing jobs in MapCtx; <=0 means
	// runtime.GOMAXPROCS(0) at construction time.
	Workers int
	// CacheDir, when non-empty, enables the on-disk cache.
	CacheDir string
	// MaxCacheBytes is the in-memory cache budget; 0 means
	// DefaultMaxCacheBytes, negative means unlimited.
	MaxCacheBytes int64
	// DiskErrorBudget is how many hard disk failures (after retries) the
	// disk layer tolerates before degrading to memory-only; <=0 means
	// the default (32).
	DiskErrorBudget int
	// JobDeadline, when positive, is the soft per-job deadline: jobs
	// exceeding it are counted (engine.job.deadline_miss) but their
	// results stand — simulations cannot be preempted mid-run without
	// breaking determinism. Whole-run deadlines belong on the
	// submissions' context.
	JobDeadline time.Duration
	// ReplayWorkers bounds the intra-job variant fan-out
	// (machine.SimulateVariants workers) of every batch a job runs,
	// and is the only setting of it; <=0 means a per-job share of the
	// socket, max(1, GOMAXPROCS/Workers), so a fully loaded job pool
	// does not oversubscribe cores. The determinism contract makes
	// results identical under any value.
	ReplayWorkers int
	// Metrics receives the engine's counters and timers; a private
	// registry is created when nil.
	Metrics *metrics.Registry
}

// Engine executes and memoizes experiment jobs. Safe for concurrent use.
type Engine struct {
	workers       int
	replayWorkers int
	met           *metrics.Registry
	jobDeadline   time.Duration

	mu       sync.Mutex
	mem      *memCache
	inflight map[string]*flight

	// beforeLookup, when set (tests only), runs before every lookup
	// attempt, with the first key it looks up. The singleflight tests
	// finish a leader inside it.
	beforeLookup func(key string)

	disk    *diskCache
	diskErr error

	traces   kind[TraceKey, *trace.Trace]
	sims     kind[SimKey, Artifact]
	analyses kind[AnalysisKey, *CritSummary]
	harvests kind[harvestKey, *Harvest]
	scheds   kind[SchedKey, SchedSummary]

	cDiskErr      *metrics.Counter
	cInsts        *metrics.Counter
	cDeadlineMiss *metrics.Counter
	cReplayBusy   *metrics.Counter
	tAna          *metrics.Timer
}

// New builds an engine from cfg. A bad cache directory disables the disk
// layer (recorded in Summary.DiskErr) rather than failing construction —
// the cache is an accelerator, not a dependency.
func New(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	replayWorkers := cfg.ReplayWorkers
	if replayWorkers <= 0 {
		replayWorkers = runtime.GOMAXPROCS(0) / workers
		if replayWorkers < 1 {
			replayWorkers = 1
		}
	}
	maxBytes := cfg.MaxCacheBytes
	if maxBytes == 0 {
		maxBytes = DefaultMaxCacheBytes
	}
	met := cfg.Metrics
	if met == nil {
		met = metrics.NewRegistry()
	}
	e := &Engine{
		workers:       workers,
		replayWorkers: replayWorkers,
		met:           met,
		jobDeadline:   cfg.JobDeadline,
		mem:           newMemCache(maxBytes),
		inflight:      map[string]*flight{},
		cDiskErr:      met.Counter("engine.disk.error"),
		cInsts:        met.Counter("engine.sim.insts"),
		cDeadlineMiss: met.Counter("engine.job.deadline_miss"),
		cReplayBusy:   met.Counter("engine.replay.busy_ns"),
		tAna:          met.Timer("engine.analysis.run"),
	}
	met.Func("engine.faults.injected", func() int64 { return faultinject.Snapshot().Total() })
	if cfg.CacheDir != "" {
		e.disk, e.diskErr = newDiskCache(cfg.CacheDir, met, cfg.DiskErrorBudget)
		if e.diskErr != nil {
			e.cDiskErr.Inc()
		}
		met.Func("engine.disk.degraded", func() int64 {
			if e.disk != nil && e.disk.degraded.Load() {
				return 1
			}
			return 0
		})
	}
	d := e.disk
	e.traces = kind[TraceKey, *trace.Trace]{e: e,
		hit: met.Counter("engine.trace.hit"), miss: met.Counter("engine.trace.miss"),
		timer: met.Timer("engine.trace.gen"),
		cost:  traceCost,
	}
	e.sims = kind[SimKey, Artifact]{e: e,
		hit: met.Counter("engine.sim.hit"), diskHit: met.Counter("engine.sim.disk_hit"),
		miss: met.Counter("engine.sim.miss"), timer: met.Timer("engine.sim.run"),
		load: func(k SimKey) (Artifact, bool) {
			res, exact, ok := d.loadResult(k)
			a := Artifact{Res: res, Exact: exact}
			return a, ok && a.complete(k)
		},
		store: e.storeSim, cost: artifactCost,
	}
	e.analyses = kind[AnalysisKey, *CritSummary]{e: e,
		hit: met.Counter("engine.analysis.hit"), diskHit: met.Counter("engine.analysis.disk_hit"),
		miss: met.Counter("engine.analysis.miss"),
		load: d.loadAnalysis,
		store: func(k AnalysisKey, cs *CritSummary) error {
			d.storeAnalysis(k, cs)
			return nil
		},
		cost: func(*CritSummary) int64 { return baseCost },
	}
	// A harvest hit serves the run without simulating, so it counts as a
	// sim hit; its miss is the simulation's own.
	e.harvests = kind[harvestKey, *Harvest]{e: e, hit: e.sims.hit, cost: harvestCost}
	e.scheds = kind[SchedKey, SchedSummary]{e: e,
		hit: met.Counter("engine.sched.hit"), diskHit: met.Counter("engine.sched.disk_hit"),
		miss: met.Counter("engine.sched.miss"), timer: met.Timer("engine.sched.run"),
		load: func(k SchedKey) (SchedSummary, bool) { return d.loadSched(k.String()) },
		store: func(k SchedKey, ss SchedSummary) error {
			d.storeSched(k.String(), &ss)
			return nil
		},
		cost: func(SchedSummary) int64 { return baseCost },
	}
	return e
}

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// ReplayWorkers returns the intra-job variant fan-out bound (see
// Config.ReplayWorkers).
func (e *Engine) ReplayWorkers() int { return e.replayWorkers }

// NoteReplay folds one SimulateVariants batch's replay busy time into
// the engine's replay-layer metrics. Values are additive across batches;
// Summary and /v1/stats read the accumulated counter.
func (e *Engine) NoteReplay(st machine.SharingStats) {
	e.cReplayBusy.Add(st.ReplayBusyNs)
}

// Metrics returns the engine's registry.
func (e *Engine) Metrics() *metrics.Registry { return e.met }

// checkCtx returns a Fatal-classified cancellation error once the
// submission's context (nil means none) is cancelled, nil otherwise.
//
// Every submission (TraceCtx, AnalysisCtx, SimVariantsCtx, SchedulesCtx,
// HarvestCtx, MapCtx) carries its own context, so
// cancelling one — a tenant's job on a shared server engine, or a CLI
// run's Ctrl-C — fails only that submission's pending work: MapCtx skips
// its not-yet-started items and its cache misses fail fast instead of
// computing. Completed results stay cached (on disk too, with a
// CacheDir), so a rerun with the same CacheDir recomputes only what was
// still missing.
func checkCtx(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Fatal(fmt.Errorf("engine: job cancelled: %w", err))
		}
	}
	return nil
}

// isCancellation reports whether err stems from a cancelled or expired
// context (either the submission's own or a singleflight leader's).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// maxForeignCancelRetries bounds how often a live submission re-runs a
// key after sharing a singleflight with a leader that was cancelled by
// its own (foreign) context.
const maxForeignCancelRetries = 16

// Trace is TraceCtx with no cancellation.
func (e *Engine) Trace(key TraceKey, gen func() (*trace.Trace, error)) (*trace.Trace, error) {
	return e.TraceCtx(nil, key, gen)
}

// TraceCtx returns the trace for key, generating it with gen on a cache
// miss. Identical keys generate at most once per process while the trace
// stays in the memory cache; traces are never written to disk, because a
// trace is a pure function of its key and regenerating it is faster than
// reading it back. Once ctx is cancelled this submission's misses fail
// fast without generating, while other submissions of the same engine
// are untouched; a nil ctx is never cancelled.
func (e *Engine) TraceCtx(ctx context.Context, key TraceKey, gen func() (*trace.Trace, error)) (*trace.Trace, error) {
	return e.traces.one(ctx, key, gen)
}

// SimVariantsCtx returns the simulation artifacts for keys, positionally
// aligned: compute receives the indices of the remaining misses (in key
// order) and must return their artifacts in that order — typically one
// fused machine.SimulateVariants call over the batch's shared trace,
// which is why the misses are batched instead of resolved one key at a
// time: the fused run decodes the trace, builds the producer index, and
// trains the shared front-end exactly once for every variant in the
// sweep. A single simulation is a one-key batch.
//
// Each artifact is cached under its own SimKey, so a later submission of
// any variant hits, whichever batch computed it; an analysis or harvest
// job caches its run's artifact under the same key. A key another
// submission is computing is shared, not computed again. Once ctx is
// cancelled this submission's misses fail fast without simulating,
// while concurrent submissions of the same engine (other tenants' jobs
// on a shared server engine) are untouched; a nil ctx is never
// cancelled.
func (e *Engine) SimVariantsCtx(ctx context.Context, keys []SimKey, compute func(miss []int) ([]Artifact, error)) ([]Artifact, error) {
	return e.sims.lookup(ctx, keys, compute)
}

// simulateLeading is the simulation inside an analysis or harvest job:
// it runs key's simulation with run, which calls derive on the live
// machine, and caches the artifact under key's sim entry as a
// SimVariantsCtx miss would. It leads key's sim flight when none is in
// progress, so a SimVariantsCtx of key submitted meanwhile shares this
// run, and lands it from a defer. (A sim already in flight cannot lend
// its machine; the job then runs alone.) engine.sim.run times the
// simulation without derive.
func (e *Engine) simulateLeading(key SimKey, run Run, derive func(*machine.Machine) error) (a Artifact, err error) {
	var fs []*flight
	canon := key.String()
	e.mu.Lock()
	if e.inflight[canon] == nil {
		fs = append(fs, e.lead(canon))
	}
	e.mu.Unlock()
	defer func() { e.sims.land(fs, err) }()
	e.sims.miss.Inc()
	var derived time.Duration
	start := time.Now()
	a, err = run(func(m *machine.Machine) error {
		t := time.Now()
		defer func() { derived += time.Since(t) }()
		return derive(m)
	})
	if err != nil {
		return a, err
	}
	e.sims.timer.Observe(time.Since(start) - derived)
	if err = e.storeSim(key, a); err == nil {
		for _, f := range fs {
			f.val, f.err = a, nil
		}
	}
	return a, err
}

// storeSim vets and persists a freshly computed artifact (with its exact
// tracker, if any). An artifact that is incomplete for its key is an
// error, never cached.
func (e *Engine) storeSim(key SimKey, a Artifact) error {
	if !a.complete(key) {
		return fmt.Errorf("engine: artifact for %s lacks the exact tracker its key promises", key)
	}
	e.cInsts.Add(a.Res.Insts)
	e.disk.storeResult(key, a.Res, a.Exact)
	return nil
}

// MapCtx runs fn once per item on the engine's worker pool and returns
// the results in item order — output i is fn(i, items[i]) regardless of
// completion order, so aggregation over the results is deterministic. A
// panicking fn is recovered and surfaced as that item's error; the pool
// keeps draining, so a panic can neither deadlock the dispatch loop nor
// strand sibling jobs. When multiple items fail, the lowest-indexed
// error wins (again for determinism).
//
// Two robustness behaviors ride on the dispatch loop: once ctx is
// cancelled, this call's not-yet-started items fail fast with the
// cancellation error while already-running jobs drain (their results are
// cached as usual) and other MapCtx calls on the same engine keep
// running; and a job killed by an injected chaos-test panic is retried
// in place — injected faults are transient by construction and must
// never change results. A nil ctx is never cancelled.
func MapCtx[I, O any](ctx context.Context, e *Engine, items []I, fn func(i int, item I) (O, error)) ([]O, error) {
	n := len(items)
	out := make([]O, n)
	errs := make([]error, n)
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := checkCtx(ctx); err != nil {
					errs[i] = err
					continue
				}
				start := time.Now()
				errs[i] = mapOne(i, items[i], &out[i], fn)
				if e.jobDeadline > 0 && time.Since(start) > e.jobDeadline {
					e.cDeadlineMiss.Inc()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mapOne runs one item with panic containment, retrying jobs that died
// to an injected chaos panic.
func mapOne[I, O any](i int, item I, out *O, fn func(int, I) (O, error)) error {
	for attempt := 0; ; attempt++ {
		err, injected := runJob(i, item, out, fn)
		if injected && attempt < maxInjectedPanicRetries {
			continue
		}
		return err
	}
}

// runJob executes fn(i, item) once, converting panics to errors. An
// injected chaos panic is reported separately so mapOne can retry it;
// genuine panics keep their stack trace.
func runJob[I, O any](i int, item I, out *O, fn func(int, I) (O, error)) (err error, injected bool) {
	defer func() {
		if r := recover(); r != nil {
			if faultinject.IsInjectedPanic(r) {
				injected = true
				err = Transient(fmt.Errorf("engine: job %d: injected worker panic", i))
				return
			}
			err = fmt.Errorf("engine: job %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	faultinject.MaybePanic("engine.worker")
	*out, err = fn(i, item)
	return err, false
}

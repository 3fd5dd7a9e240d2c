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
// Three layers serve a lookup, in order:
//
//  1. an in-memory LRU of values (byte-budgeted; the least recently
//     used entries are dropped under pressure and recomputed, or reloaded
//     from disk, on their next request),
//  2. an optional on-disk cache that survives across processes: results,
//     analyses and schedules as CRC-framed JSON records appended to one
//     segment file (traces are regenerated, never written); corrupt
//     entries are quarantined and recomputed, and repeated I/O failures
//     degrade the layer to memory-only,
//  3. a singleflight table so concurrent submissions of one key run the
//     simulation exactly once.
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
// (25 B/inst) dominate. Rendering every paper experiment at 12,000
// instructions per benchmark holds about 28 MiB, which scales to about
// half the budget at the default 200,000.
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
	// (machine.SimulateVariants workers) each simulation job may
	// use; <=0 means a per-job share of the socket,
	// max(1, GOMAXPROCS/Workers), so a fully loaded job pool does not
	// oversubscribe cores. The determinism contract makes results
	// identical under any value.
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
	inflight map[string]*call

	// beforeLookup, when set (tests only), runs before every cache lookup
	// that can start a computation: doOnce's, and the recheck of
	// SimVariantsCtx' and SchedulesCtx' misses. The singleflight tests
	// finish a leader inside it.
	beforeLookup func(key string)

	disk    *diskCache
	diskErr error

	cTraceHit, cTraceMiss                *metrics.Counter
	cSimHit, cSimDiskHit, cSimMiss       *metrics.Counter
	cAnaHit, cAnaDiskHit, cAnaMiss       *metrics.Counter
	cSchedHit, cSchedDiskHit, cSchedMiss *metrics.Counter
	cDiskErr                             *metrics.Counter
	cInsts                               *metrics.Counter
	cDeadlineMiss                        *metrics.Counter
	cReplayBusy                          *metrics.Counter
	tSim, tTrace, tAna, tSched           *metrics.Timer
}

// call is one in-flight singleflight execution.
type call struct {
	done chan struct{}
	val  any
	err  error
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
		inflight:      map[string]*call{},

		cTraceHit:     met.Counter("engine.trace.hit"),
		cTraceMiss:    met.Counter("engine.trace.miss"),
		cSimHit:       met.Counter("engine.sim.hit"),
		cSimDiskHit:   met.Counter("engine.sim.disk_hit"),
		cSimMiss:      met.Counter("engine.sim.miss"),
		cAnaHit:       met.Counter("engine.analysis.hit"),
		cAnaDiskHit:   met.Counter("engine.analysis.disk_hit"),
		cAnaMiss:      met.Counter("engine.analysis.miss"),
		cSchedHit:     met.Counter("engine.sched.hit"),
		cSchedDiskHit: met.Counter("engine.sched.disk_hit"),
		cSchedMiss:    met.Counter("engine.sched.miss"),
		cDiskErr:      met.Counter("engine.disk.error"),
		cInsts:        met.Counter("engine.sim.insts"),
		cDeadlineMiss: met.Counter("engine.job.deadline_miss"),
		cReplayBusy:   met.Counter("engine.replay.busy_ns"),
		tSim:          met.Timer("engine.sim.run"),
		tTrace:        met.Timer("engine.trace.gen"),
		tAna:          met.Timer("engine.analysis.run"),
		tSched:        met.Timer("engine.sched.run"),
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
// Every submission (TraceCtx, SimCtx, AnalysisCtx, SimVariantsCtx,
// SchedulesCtx, HarvestCtx, MapCtx) carries its own context, so
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

// diskAvailable reports whether the disk layer exists and has not
// degraded to memory-only.
func (e *Engine) diskAvailable() bool { return e.disk.available() }

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
	canon := key.String()
	cached := func(ent *entry) (any, bool) { return ent.tr, ent.tr != nil }
	v, err := e.doOnce(ctx, canon, e.cTraceHit, cached, func() (any, error) {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		e.cTraceMiss.Inc()
		start := time.Now()
		tr, err := gen()
		if err != nil {
			return nil, err
		}
		e.tTrace.Observe(time.Since(start))
		e.mu.Lock()
		e.mem.putTrace(canon, tr, tr.Len())
		e.mu.Unlock()
		return tr, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Trace), nil
}

// SimCtx returns the artifact for key, simulating with run on a cache
// miss. Concurrent submissions of one key — e.g. two figure drivers
// sharing a focused-stack run — simulate once and share the artifact.
// Once ctx is cancelled this submission's misses fail fast without
// simulating, while concurrent submissions of the same engine (other
// tenants' jobs on a shared server engine) are untouched; a nil ctx is
// never cancelled.
func (e *Engine) SimCtx(ctx context.Context, key SimKey, run Run) (Artifact, error) {
	canon := key.String()
	cached := func(ent *entry) (any, bool) {
		if !ent.art.complete(key) {
			return nil, false
		}
		return *ent.art, true
	}
	v, err := e.doOnce(ctx, canon, e.cSimHit, cached, func() (any, error) {
		if a, ok := e.diskSim(key, canon); ok {
			return a, nil
		}
		return e.simulate(ctx, key, run, nil)
	})
	if err != nil {
		return Artifact{}, err
	}
	return v.(Artifact), nil
}

// diskSim serves key from the disk result cache; a TrackExact key's
// entry serves only if it persisted the exact tracker. A hit is cached
// in memory.
func (e *Engine) diskSim(key SimKey, canon string) (Artifact, bool) {
	if !e.diskAvailable() {
		return Artifact{}, false
	}
	res, exact, ok := e.disk.loadResult(key)
	a := Artifact{Res: res, Exact: exact}
	if !ok || !a.complete(key) {
		return Artifact{}, false
	}
	e.mu.Lock()
	e.mem.putSim(canon, &a)
	e.mu.Unlock()
	e.cSimDiskHit.Inc()
	return a, true
}

// simulate is the one job that runs a machine for key. It counts and
// times a sim miss, runs run, lets derive (when non-nil) read the live
// machine, caches the artifact under key's sim entry (memory and disk),
// and recycles the machine before returning.
//
// A derived-product job also leads key's sim flight when none is in
// progress, so a SimCtx of key submitted meanwhile shares this run. (A
// sim already in flight cannot lend its machine; the job then runs
// alone.)
func (e *Engine) simulate(ctx context.Context, key SimKey, run Run, derive func(*machine.Machine) error) (Artifact, error) {
	if err := checkCtx(ctx); err != nil {
		return Artifact{}, err
	}
	canon := key.String()
	var flight *call
	if derive != nil {
		e.mu.Lock()
		if _, busy := e.inflight[canon]; !busy {
			flight = e.lead(canon)
		}
		e.mu.Unlock()
	}
	e.cSimMiss.Inc()
	start := time.Now()
	m, a, err := run()
	defer machine.Recycle(m)
	if err == nil {
		e.tSim.Observe(time.Since(start))
		err = e.storeSim(key, a)
	}
	if flight != nil {
		e.land(canon, flight, a, err)
	}
	if err != nil {
		return Artifact{}, err
	}
	if derive != nil {
		if err := derive(m); err != nil {
			return Artifact{}, err
		}
	}
	return a, nil
}

// storeSim caches a freshly computed artifact in memory and on disk
// (with its exact tracker, if any). An artifact that is incomplete for
// its key is an error, never cached.
func (e *Engine) storeSim(key SimKey, a Artifact) error {
	if !a.complete(key) {
		return fmt.Errorf("engine: artifact for %s lacks the exact tracker its key promises", key)
	}
	canon := key.String()
	e.cInsts.Add(a.Res.Insts)
	e.mu.Lock()
	e.mem.putSim(canon, &a)
	e.mu.Unlock()
	if e.diskAvailable() {
		e.disk.storeResult(key, a.Res, a.Exact)
	}
	return nil
}

// doOnce serves key from the memory cache or collapses concurrent
// executions of it into a single call of fn. cached reports whether a
// memory entry can serve this caller, and with what; it runs in the same
// e.mu hold as the in-flight check, so a leader that stores its value
// and leaves the flight is always seen one way or the other, never
// recomputed. Cache hits and later arrivals that share the leader's
// value count on hitCtr (the work was deduplicated even though no cache
// entry existed yet). Errors are not memoized — the key is retried on
// the next submission.
//
// A cancellation shared from a leader that was cancelled by its own
// submission context is not this caller's: while ctx (and the engine's
// context) is live, the lookup retries, and this caller either becomes
// the new leader or joins a live one.
func (e *Engine) doOnce(ctx context.Context, key string, hitCtr *metrics.Counter, cached func(*entry) (any, bool), fn func() (any, error)) (any, error) {
	for attempt := 0; ; attempt++ {
		v, err := e.doOnceAttempt(key, hitCtr, cached, fn)
		if err != nil && isCancellation(err) && checkCtx(ctx) == nil && attempt < maxForeignCancelRetries {
			continue
		}
		return v, err
	}
}

// doOnceAttempt is one lookup-or-compute attempt of doOnce.
func (e *Engine) doOnceAttempt(key string, hitCtr *metrics.Counter, cached func(*entry) (any, bool), fn func() (any, error)) (any, error) {
	if e.beforeLookup != nil {
		e.beforeLookup(key)
	}
	e.mu.Lock()
	if ent := e.mem.get(key); ent != nil {
		if v, ok := cached(ent); ok {
			e.mu.Unlock()
			hitCtr.Inc()
			return v, nil
		}
	}
	if c, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		<-c.done
		if c.err == nil {
			hitCtr.Inc()
		}
		return c.val, c.err
	}
	c := e.lead(key)
	e.mu.Unlock()
	v, err := fn()
	e.land(key, c, v, err)
	return v, err
}

// lead registers a new flight for key; e.mu must be held.
func (e *Engine) lead(key string) *call {
	c := &call{done: make(chan struct{})}
	e.inflight[key] = c
	return c
}

// land hands a leader's outcome to the flight's followers and ends it.
func (e *Engine) land(key string, c *call, v any, err error) {
	c.val, c.err = v, err
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)
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

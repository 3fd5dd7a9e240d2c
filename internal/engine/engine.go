// Package engine is the sharded experiment engine: it decomposes figure
// drivers into (benchmark, cluster-config, policy-stack, forwarding,
// seed) simulation jobs, deduplicates identical jobs across figures via
// a content-addressed cache of generated traces and simulation
// artifacts, and executes work on a bounded worker pool with
// deterministic result ordering regardless of GOMAXPROCS or the pool
// size.
//
// The contract that makes caching sound is purity: every job is fully
// determined by its key (the workload generators, predictors and
// policies are all seeded from the key's fields), so a cached artifact
// is indistinguishable from a fresh computation. The determinism test
// suite in internal/experiments pins this property.
//
// Three layers serve a lookup, in order:
//
//  1. an in-memory LRU (byte-budgeted; entries holding live machines are
//     demoted to result-only stubs under pressure),
//  2. an optional on-disk cache (traces as CTR2 stores,
//     results as JSON, every entry CRC-framed; corrupt entries are
//     quarantined and recomputed, and repeated I/O failures degrade the
//     layer to memory-only) that survives across processes,
//  3. a singleflight table so concurrent submissions of one key run the
//     simulation exactly once.
//
// For failure semantics — the Transient/Corrupt/Fatal error taxonomy,
// fault injection, the resume journal, and cancellation — see
// DESIGN.md's "Failure model & recovery".
package engine

import (
	"bytes"
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

// errNoMachine reports a derived-product request against a result-only
// artifact (disk-loaded or demoted).
var errNoMachine = errors.New("engine: artifact holds no machine (result-only cache entry)")

// DefaultMaxCacheBytes bounds the in-memory cache when Config leaves it
// unset: generous enough to share runs across an entire `clustersim all`
// invocation at test scales, bounded enough not to retain every machine
// of a full-scale run.
const DefaultMaxCacheBytes = 1 << 30

// maxInjectedPanicRetries bounds how often Map re-runs a job killed by
// an injected worker panic before surfacing the (transient) error.
const maxInjectedPanicRetries = 6

// Config configures an Engine.
type Config struct {
	// Workers bounds concurrently executing jobs in Map; <=0 means
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
	// breaking determinism. Whole-run deadlines belong on the context
	// (SetContext).
	JobDeadline time.Duration
	// TraceWindowChunks bounds how many trace-store chunks TraceStore
	// keeps resident per open store; <=0 means the trace package default.
	TraceWindowChunks int
	// ReplayWorkers bounds the intra-job variant fan-out
	// (machine.SimulateVariantsOpts workers) each simulation job may
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
	traceWindow   int

	mu       sync.Mutex
	mem      *memCache
	inflight map[string]*call
	ctx      context.Context // nil means never cancelled

	// beforeLookup, when set (tests only), runs before every cache lookup
	// that can start a computation: doOnce's, and the recheck of
	// Schedules' misses. The singleflight tests finish a leader inside it.
	beforeLookup func(key string)

	disk    *diskCache
	diskErr error
	journal *journal

	cTraceHit, cTraceMiss                *metrics.Counter
	cSimHit, cSimDiskHit, cSimMiss       *metrics.Counter
	cAnaHit, cAnaDiskHit, cAnaMiss       *metrics.Counter
	cSchedHit, cSchedDiskHit, cSchedMiss *metrics.Counter
	cDiskErr                             *metrics.Counter
	cInsts                               *metrics.Counter
	cResumeRestored, cResumeHit          *metrics.Counter
	cDeadlineMiss                        *metrics.Counter
	cReplayBusy, cEventsElided           *metrics.Counter
	cGridGroups, cGridShared             *metrics.Counter
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
		traceWindow:   cfg.TraceWindowChunks,
		mem:           newMemCache(maxBytes),
		inflight:      map[string]*call{},

		cTraceHit:       met.Counter("engine.trace.hit"),
		cTraceMiss:      met.Counter("engine.trace.miss"),
		cSimHit:         met.Counter("engine.sim.hit"),
		cSimDiskHit:     met.Counter("engine.sim.disk_hit"),
		cSimMiss:        met.Counter("engine.sim.miss"),
		cAnaHit:         met.Counter("engine.analysis.hit"),
		cAnaDiskHit:     met.Counter("engine.analysis.disk_hit"),
		cAnaMiss:        met.Counter("engine.analysis.miss"),
		cSchedHit:       met.Counter("engine.sched.hit"),
		cSchedDiskHit:   met.Counter("engine.sched.disk_hit"),
		cSchedMiss:      met.Counter("engine.sched.miss"),
		cDiskErr:        met.Counter("engine.disk.error"),
		cInsts:          met.Counter("engine.sim.insts"),
		cResumeRestored: met.Counter("engine.resume.restored"),
		cResumeHit:      met.Counter("engine.resume.hit"),
		cDeadlineMiss:   met.Counter("engine.job.deadline_miss"),
		cReplayBusy:     met.Counter("engine.replay.busy_ns"),
		cEventsElided:   met.Counter("engine.replay.events_elided"),
		cGridGroups:     met.Counter("engine.replay.grid_groups"),
		cGridShared:     met.Counter("engine.replay.grid_shared"),
		tSim:            met.Timer("engine.sim.run"),
		tTrace:          met.Timer("engine.trace.gen"),
		tAna:            met.Timer("engine.analysis.run"),
		tSched:          met.Timer("engine.sched.run"),
	}
	met.Func("engine.faults.injected", func() int64 { return faultinject.Snapshot().Total() })
	met.Func("machine.stream.windows_in_flight", machine.StreamWindowsInFlight)
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

// NoteReplay folds one SimulateVariants batch's sharing stats into the
// engine's replay-layer metrics. Values are additive across batches;
// Summary and /v1/stats read the accumulated counters.
func (e *Engine) NoteReplay(st machine.SharingStats) {
	e.cReplayBusy.Add(st.ReplayBusyNs)
	e.cEventsElided.Add(st.EventsElided)
	e.cGridGroups.Add(int64(st.GridGroups))
	e.cGridShared.Add(int64(st.GridShared))
}

// Metrics returns the engine's registry.
func (e *Engine) Metrics() *metrics.Registry { return e.met }

// SetContext attaches the engine-wide run context. Once ctx is cancelled
// (Ctrl-C, a -deadline expiry) the engine stops starting new work: Map
// skips pending items, and cache misses fail fast instead of simulating.
// Completed results remain cached and journaled, so a later -resume run
// recomputes only what was still missing.
//
// SetContext governs the whole engine: every submission from every
// caller observes it. Work that has its own lifetime — one tenant's job
// on a shared server engine — must NOT route its cancellation through
// SetContext (concurrent jobs would overwrite each other's contexts, and
// cancelling one would kill the others' pending work). Use the *Ctx
// submission variants (TraceCtx, SimCtx, AnalysisCtx, SchedulesCtx,
// MapCtx) instead: their per-submission context composes with the
// engine-wide one, and cancelling it fails only that submission.
func (e *Engine) SetContext(ctx context.Context) {
	e.mu.Lock()
	e.ctx = ctx
	e.mu.Unlock()
}

// checkCtx returns a Fatal-classified cancellation error once either the
// per-submission context (nil means none) or the engine-wide context
// from SetContext is cancelled, nil otherwise.
func (e *Engine) checkCtx(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Fatal(fmt.Errorf("engine: job cancelled: %w", err))
		}
	}
	e.mu.Lock()
	ectx := e.ctx
	e.mu.Unlock()
	if ectx == nil {
		return nil
	}
	if err := ectx.Err(); err != nil {
		return Fatal(fmt.Errorf("engine: run cancelled: %w", err))
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

// Trace returns the trace for key, generating it with gen on a cache
// miss. Identical keys generate at most once per process (and at most
// once per CacheDir across processes).
func (e *Engine) Trace(key TraceKey, gen func() (*trace.Trace, error)) (*trace.Trace, error) {
	return e.TraceCtx(nil, key, gen)
}

// TraceCtx is Trace with a per-submission context: once ctx is cancelled
// this submission's misses fail fast without generating, while other
// submissions of the same engine are untouched. A nil ctx means no
// per-submission cancellation (the engine-wide SetContext still applies).
func (e *Engine) TraceCtx(ctx context.Context, key TraceKey, gen func() (*trace.Trace, error)) (*trace.Trace, error) {
	canon := key.String()
	cached := func(ent *entry) (any, bool) { return ent.tr, ent.tr != nil }
	for attempt := 0; ; attempt++ {
		v, err := e.doOnce(canon, e.cTraceHit, cached, func() (any, error) {
			if e.diskAvailable() {
				if tr, ok := e.disk.loadTrace(key); ok {
					e.cTraceHit.Inc()
					e.storeTrace(canon, key, tr, false)
					return tr, nil
				}
			}
			if err := e.checkCtx(ctx); err != nil {
				return nil, err
			}
			e.cTraceMiss.Inc()
			start := time.Now()
			tr, err := gen()
			if err != nil {
				return nil, err
			}
			e.tTrace.Observe(time.Since(start))
			e.storeTrace(canon, key, tr, true)
			return tr, nil
		})
		if err != nil {
			// A cancellation surfaced by a shared singleflight whose leader
			// was cancelled by its own context is not ours: retry while our
			// context (and the engine's) is still live.
			if isCancellation(err) && e.checkCtx(ctx) == nil && attempt < maxForeignCancelRetries {
				continue
			}
			return nil, err
		}
		return v.(*trace.Trace), nil
	}
}

// storeTrace caches tr in memory and, for fresh generations, on disk.
// Disk persistence is fire-and-forget: the trace is already in hand, so
// a write failure is counted inside the disk layer, never returned.
func (e *Engine) storeTrace(canon string, key TraceKey, tr *trace.Trace, persist bool) {
	e.mu.Lock()
	e.mem.putTrace(canon, tr, tr.Len())
	e.mu.Unlock()
	if persist && e.diskAvailable() {
		e.disk.storeTrace(key, tr)
	}
}

// TraceStore returns the trace for key as an open chunked store instead
// of a materialized trace: callers page windows in via WindowTrace (see
// machine.SimulateStore) and never hold more than
// Config.TraceWindowChunks chunks resident, which is what makes
// 100M-instruction runs fit in bounded memory. gen streams the
// generation into a chunked writer; on a disk-cache hit gen never runs,
// and the store pages straight out of the cache entry written by an
// earlier TraceStore or Trace call (the two share one entry format).
// Identical keys generate at most once per process.
//
// The returned store is shared across callers and cached; do not Close
// it — it stays open for the life of the process (one descriptor per
// distinct trace file).
func (e *Engine) TraceStore(key TraceKey, gen func(*trace.Writer) error) (*trace.Store, error) {
	return e.TraceStoreCtx(nil, key, gen)
}

// TraceStoreCtx is TraceStore with a per-submission context, with the
// same semantics as TraceCtx: a cancelled ctx fails this submission's
// misses fast, and a cancellation inherited from a foreign singleflight
// leader is retried while our own context is live.
func (e *Engine) TraceStoreCtx(ctx context.Context, key TraceKey, gen func(*trace.Writer) error) (*trace.Store, error) {
	canon := key.String()
	// Store handles and materialized traces are distinct cache values for
	// one trace key, so the memory cache (and singleflight) key them apart.
	memKey := canon + "|store"
	cached := func(ent *entry) (any, bool) { return ent.st, ent.st != nil }
	for attempt := 0; ; attempt++ {
		v, err := e.doOnce(memKey, e.cTraceHit, cached, func() (any, error) {
			if e.diskAvailable() {
				if st, ok := e.disk.loadTraceStore(key, e.traceWindow); ok {
					e.cTraceHit.Inc()
					e.cacheStore(memKey, st, 0)
					return st, nil
				}
			}
			if err := e.checkCtx(ctx); err != nil {
				return nil, err
			}
			e.cTraceMiss.Inc()
			start := time.Now()
			st, resident, err := e.generateStore(key, gen)
			if err != nil {
				return nil, err
			}
			e.tTrace.Observe(time.Since(start))
			e.cacheStore(memKey, st, resident)
			return st, nil
		})
		if err != nil {
			if isCancellation(err) && e.checkCtx(ctx) == nil && attempt < maxForeignCancelRetries {
				continue
			}
			return nil, err
		}
		return v.(*trace.Store), nil
	}
}

// generateStore runs gen into a chunked store. With a live disk layer
// the generation streams straight into the cache entry (bounded memory
// end to end) and the entry is reopened file-backed; a transient I/O
// failure there degrades to generating into memory — the cache is an
// accelerator, never a dependency. Returns the store plus the resident
// bytes the memory cache should charge beyond the chunk window.
func (e *Engine) generateStore(key TraceKey, gen func(*trace.Writer) error) (*trace.Store, int64, error) {
	if e.diskAvailable() {
		err := e.disk.createTraceStore(key, gen)
		if err == nil {
			if st, ok := e.disk.loadTraceStore(key, e.traceWindow); ok {
				return st, 0, nil
			}
			// Entry vanished or failed validation between write and open
			// (another process, injected faults): fall through to memory.
		} else if !errors.Is(err, ErrTransient) {
			// gen itself failed; no fallback will fare better.
			return nil, 0, err
		}
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.WriterOptions{Meta: []byte(key.String())})
	if err != nil {
		return nil, 0, err
	}
	if err := gen(w); err != nil {
		return nil, 0, err
	}
	if err := w.Close(); err != nil {
		return nil, 0, err
	}
	st, err := trace.OpenBytes(buf.Bytes(), trace.OpenOptions{WindowChunks: e.traceWindow})
	if err != nil {
		return nil, 0, err
	}
	return st, int64(buf.Len()), nil
}

// cacheStore parks an open store in the memory cache, charged for its
// bounded chunk window plus any memory-backed encoded bytes.
func (e *Engine) cacheStore(memKey string, st *trace.Store, resident int64) {
	e.mu.Lock()
	e.mem.putStore(memKey, st, resident)
	e.mu.Unlock()
}

// Sim returns the artifact for key, simulating with run on a cache miss.
// need declares which products the caller will read: a result-only cache
// entry (demoted under memory pressure) satisfies NeedResult but forces
// a re-simulation for NeedMachine/NeedExact; a disk entry additionally
// satisfies NeedExact when it persisted the exact tracker.
// Concurrent submissions of one key — e.g. two figure drivers sharing a
// focused-stack run — simulate once and share the artifact.
func (e *Engine) Sim(key SimKey, need Need, run func() (*Artifact, error)) (*Artifact, error) {
	return e.SimCtx(nil, key, need, run)
}

// SimCtx is Sim with a per-submission context: once ctx is cancelled this
// submission's misses fail fast without simulating, while concurrent
// submissions of the same engine (other tenants' jobs on a shared server
// engine) are untouched. A nil ctx means no per-submission cancellation
// (the engine-wide SetContext still applies).
func (e *Engine) SimCtx(ctx context.Context, key SimKey, need Need, run func() (*Artifact, error)) (*Artifact, error) {
	if need&NeedExact != 0 && !key.TrackExact {
		return nil, fmt.Errorf("engine: %s requested for key without TrackExact (%s)", need, key)
	}
	canon := key.String()
	cached := func(ent *entry) (any, bool) { return ent.art, ent.art != nil && ent.art.satisfies(need) }
	for attempt := 0; ; attempt++ {
		v, err := e.doOnce(canon, e.cSimHit, cached, func() (any, error) {
			if a := e.diskSim(key, canon, need); a != nil {
				return a, nil
			}
			if err := e.checkCtx(ctx); err != nil {
				return nil, err
			}
			e.cSimMiss.Inc()
			start := time.Now()
			a, err := run()
			if err != nil {
				return nil, err
			}
			e.tSim.Observe(time.Since(start))
			e.storeSim(key, canon, a)
			return a, nil
		})
		if err != nil {
			// Sharing a singleflight with a leader that was cancelled by
			// its own submission context must not fail this (live)
			// submission: retry — this caller either becomes the new
			// leader or joins a live one. Our own cancellation (or the
			// engine-wide one) still fails fast via checkCtx.
			if isCancellation(err) && e.checkCtx(ctx) == nil && attempt < maxForeignCancelRetries {
				continue
			}
			return nil, err
		}
		a := v.(*Artifact)
		if !a.satisfies(need) {
			// Shared a flight whose artifact cannot serve this need (it
			// raced with a demotion, or joined a disk-loaded entry). Rare;
			// retry resolves it.
			return e.SimCtx(ctx, key, need, run)
		}
		return a, nil
	}
}

// diskSim serves key from the disk result cache when the entry can
// satisfy need: never NeedMachine, and NeedExact only from entries that
// persisted the exact tracker. A hit is cached in memory and journaled;
// nil means a miss.
func (e *Engine) diskSim(key SimKey, canon string, need Need) *Artifact {
	if need&NeedMachine != 0 || !e.diskAvailable() {
		return nil
	}
	res, exact, ok := e.disk.loadResult(key)
	if !ok {
		return nil
	}
	a := NewResultArtifact(res, exact)
	if !a.satisfies(need) {
		return nil
	}
	e.mu.Lock()
	e.mem.putSim(canon, a, key.Insts)
	e.mu.Unlock()
	e.cSimDiskHit.Inc()
	e.journalResult(canon, key.Insts, res)
	return a
}

// storeSim caches a freshly computed artifact in memory and on disk
// (with its exact tracker, if any) and journals its result.
func (e *Engine) storeSim(key SimKey, canon string, a *Artifact) {
	e.cInsts.Add(a.Res.Insts)
	e.mu.Lock()
	e.mem.putSim(canon, a, key.Insts)
	e.mu.Unlock()
	if e.diskAvailable() {
		e.disk.storeResult(key, a.Res, a.Exact())
	}
	e.journalResult(canon, key.Insts, a.Res)
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
func (e *Engine) doOnce(key string, hitCtr *metrics.Counter, cached func(*entry) (any, bool), fn func() (any, error)) (any, error) {
	if e.beforeLookup != nil {
		e.beforeLookup(key)
	}
	e.mu.Lock()
	if ent := e.mem.get(key); ent != nil {
		if v, ok := cached(ent); ok {
			fromJournal := ent.journal
			e.mu.Unlock()
			hitCtr.Inc()
			if fromJournal {
				e.cResumeHit.Inc()
			}
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
	c := &call{done: make(chan struct{})}
	e.inflight[key] = c
	e.mu.Unlock()

	c.val, c.err = fn()

	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)
	return c.val, c.err
}

// Map runs fn once per item on the engine's worker pool and returns the
// results in item order — output i is fn(i, items[i]) regardless of
// completion order, so aggregation over the results is deterministic. A
// panicking fn is recovered and surfaced as that item's error; the pool
// keeps draining, so a panic can neither deadlock the dispatch loop nor
// strand sibling jobs. When multiple items fail, the lowest-indexed
// error wins (again for determinism).
//
// Two robustness behaviors ride on the dispatch loop: once the engine's
// context is cancelled, not-yet-started items fail fast with the
// cancellation error while already-running jobs drain (their results are
// cached and journaled as usual); and a job killed by an injected
// chaos-test panic is retried in place — injected faults are transient
// by construction and must never change results.
func Map[I, O any](e *Engine, items []I, fn func(i int, item I) (O, error)) ([]O, error) {
	return MapCtx(nil, e, items, fn)
}

// MapCtx is Map with a per-submission context: once ctx is cancelled,
// this call's not-yet-started items fail fast while other Map calls on
// the same engine keep running. A nil ctx means no per-submission
// cancellation (the engine-wide SetContext still applies).
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
				if err := e.checkCtx(ctx); err != nil {
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

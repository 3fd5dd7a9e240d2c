package engine

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/durable"
	"clustersim/internal/faultinject"
	"clustersim/internal/machine"
	"clustersim/internal/metrics"
	"clustersim/internal/predictor"
	"clustersim/internal/trace"
)

// entry is one memory-cache slot.
type entry struct {
	key     string
	tr      *trace.Trace
	st      *trace.Store
	art     *Artifact
	crit    *CritSummary
	sched   *SchedSummary
	harvest *Harvest
	cost    int64
	elem    *list.Element
	// journal marks entries restored by journal replay; hits on them
	// count as resume hits so -resume runs can prove they recomputed
	// only the missing keys.
	journal bool
}

// memCache is a byte-budgeted LRU over traces and the values derived
// from simulations. Every entry is a value its holders only read, so
// under pressure the least recently used entries are simply dropped:
// callers already holding a value keep it, and the next request for a
// dropped key recomputes it (or reloads it from disk).
//
// memCache is not internally locked; the Engine serializes access.
type memCache struct {
	max     int64 // <=0 means unlimited
	bytes   int64
	entries map[string]*entry
	ll      *list.List // front = most recently used
	evicted int64
}

func newMemCache(maxBytes int64) *memCache {
	return &memCache{max: maxBytes, entries: map[string]*entry{}, ll: list.New()}
}

func (c *memCache) get(key string) *entry {
	e, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(e.elem)
	return e
}

func (c *memCache) putTrace(key string, tr *trace.Trace, insts int) {
	c.put(&entry{key: key, tr: tr, cost: traceCost(insts)})
}

func (c *memCache) putSim(key string, a *Artifact) {
	c.put(&entry{key: key, art: a, cost: artifactCost(a)})
}

// putAnalysis caches a derived critical-path summary.
func (c *memCache) putAnalysis(key string, cs *CritSummary) {
	c.put(&entry{key: key, crit: cs, cost: baseCost})
}

// putSched caches a derived schedule summary.
func (c *memCache) putSched(key string, ss *SchedSummary) {
	c.put(&entry{key: key, sched: ss, cost: baseCost})
}

// putHarvest caches a schedule harvest, charged per instruction.
func (c *memCache) putHarvest(key string, h *Harvest) {
	c.put(&entry{key: key, harvest: h, cost: harvestCost(h)})
}

// putStore caches an open chunked trace store. Its resident footprint is
// the chunk window (bounded regardless of trace length) plus, for
// memory-backed stores, the encoded bytes themselves — the caller passes
// that extra as resident. Evicted stores are not closed: callers may
// still hold the handle, and a file-backed store's descriptor is owned
// by whoever opened it.
func (c *memCache) putStore(key string, st *trace.Store, resident int64) {
	c.put(&entry{key: key, st: st, cost: baseCost + st.WindowBytes() + resident})
}

func (c *memCache) put(e *entry) {
	if old, ok := c.entries[e.key]; ok {
		c.bytes -= old.cost
		c.ll.Remove(old.elem)
		delete(c.entries, e.key)
	}
	e.elem = c.ll.PushFront(e)
	c.entries[e.key] = e
	c.bytes += e.cost
	c.shrink()
}

// shrink enforces the byte budget by dropping least recently used
// entries.
func (c *memCache) shrink() {
	if c.max <= 0 {
		return
	}
	for c.bytes > c.max && c.ll.Len() > 0 {
		oldest := c.ll.Back().Value.(*entry)
		c.bytes -= oldest.cost
		c.ll.Remove(oldest.elem)
		delete(c.entries, oldest.key)
		c.evicted++
	}
}

// len returns the number of resident entries.
func (c *memCache) len() int { return c.ll.Len() }

// diskCache persists artifacts across processes, keyed by the hash of
// the canonical key string. Traces are stored as CTR2 chunked stores;
// simulation results are stored as JSON envelopes, with the exact
// tracker's counts for TrackExact keys, so memory and disk hold the same
// Artifact value. Schedule harvests are never persisted; the schedule
// summaries derived from them are.
//
// The disk layer is an accelerator, never a dependency, and every
// failure mode degrades instead of propagating:
//
//   - every entry is a CSF1 frame (durable.EncodeFrame); an entry that fails
//     validation — truncated, bit-flipped, foreign, or written by an
//     older unframed binary — is moved to <dir>/quarantine/ and treated
//     as a miss, so corruption triggers a recompute, never an error;
//   - transient read/write errors are retried with capped exponential
//     backoff and then counted as misses;
//   - after errorBudget hard failures the layer degrades to memory-only
//     for the rest of the process with a single stderr notice;
//   - stale *.tmp files from interrupted writers are swept on open.
type diskCache struct {
	dir string

	// Failure accounting, shared with the engine's metrics registry.
	cErr        *metrics.Counter
	cRetry      *metrics.Counter
	cQuarantine *metrics.Counter
	cSwept      *metrics.Counter

	budget   atomic.Int64
	degraded atomic.Bool
	notice   sync.Once
}

// Disk-failure policy knobs. writeAttempts bounds the retry loop
// (first try + retries); backoffBase doubles per retry up to backoffCap.
const (
	writeAttempts      = 4
	backoffBase        = 200 * time.Microsecond
	backoffCap         = 2 * time.Millisecond
	defaultErrorBudget = 32
)

// Payload bounds for frame validation: derived summaries are small JSON,
// traces carry a whole CTR2 store.
const (
	maxJSONPayload  = 8 << 20
	maxTracePayload = 1 << 30
)

func newDiskCache(dir string, met *metrics.Registry, errorBudget int) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Fatal(fmt.Errorf("engine: cache dir: %w", err))
	}
	if errorBudget <= 0 {
		errorBudget = defaultErrorBudget
	}
	d := &diskCache{
		dir:         dir,
		cErr:        met.Counter("engine.disk.error"),
		cRetry:      met.Counter("engine.disk.retry"),
		cQuarantine: met.Counter("engine.disk.quarantine"),
		cSwept:      met.Counter("engine.disk.tmp_swept"),
	}
	d.budget.Store(int64(errorBudget))
	d.sweepTemps()
	return d, nil
}

// sweepTemps removes stale .tmp-* files left by interrupted writers.
// Writers create temp files and rename them into place, so anything
// still matching the temp pattern belongs to a dead process.
func (d *diskCache) sweepTemps() {
	stale, err := filepath.Glob(filepath.Join(d.dir, ".tmp-*"))
	if err != nil {
		return
	}
	for _, path := range stale {
		if os.Remove(path) == nil {
			d.cSwept.Inc()
		}
	}
}

// available reports whether the disk layer still serves traffic.
func (d *diskCache) available() bool { return d != nil && !d.degraded.Load() }

// fail records one hard failure (after retries) and degrades the layer
// when the error budget runs out.
func (d *diskCache) fail(err error) {
	d.cErr.Inc()
	if d.budget.Add(-1) == 0 {
		d.degraded.Store(true)
		d.notice.Do(func() {
			fmt.Fprintf(os.Stderr,
				"engine: disk cache degraded to memory-only after repeated I/O failures (last: %v)\n", err)
		})
	}
}

// quarantine moves a failed-validation entry to <dir>/quarantine/ so it
// can be inspected post-mortem instead of poisoning every future run.
// The caller treats the entry as a miss.
func (d *diskCache) quarantine(path string) {
	d.cQuarantine.Inc()
	qdir := filepath.Join(d.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(path)
		return
	}
	if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err != nil {
		// A second process may have quarantined it first; otherwise just
		// drop it so the recompute's rewrite starts clean.
		os.Remove(path)
	}
}

// readRawEntry loads one entry's raw bytes with hit-or-miss semantics:
// a missing file is a plain miss; an I/O error is transient (counted
// against the budget); an implausibly large file quarantines. The bytes
// carry no integrity guarantee yet — the caller validates (CSF1 frame
// or CTR2 self-framing) and quarantines on failure.
func (d *diskCache) readRawEntry(path string, maxLen int) ([]byte, bool) {
	if !d.available() {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err == nil {
		data, err = faultinject.ReadFault("cache.read", data)
	}
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false
		}
		d.fail(Transient(err))
		return nil, false
	}
	if len(data) > maxLen {
		d.quarantine(path)
		return nil, false
	}
	return data, true
}

// readEntry loads and validates one CSF1-framed entry. A missing file is
// a plain miss; an I/O error is transient (counted against the budget);
// a validation failure quarantines the file. In every case the caller
// sees only hit-or-miss.
func (d *diskCache) readEntry(path string, maxLen int) ([]byte, bool) {
	data, ok := d.readRawEntry(path, maxLen+durable.FrameHeaderLen)
	if !ok {
		return nil, false
	}
	payload, err := decodeFrame(data, maxLen)
	if err != nil {
		d.quarantine(path)
		return nil, false
	}
	return payload, true
}

// writeRawEntry persists one entry's bytes with retries and backoff.
// Write failures never propagate: by the time an entry is written the
// computed artifact is already in hand, so the worst case is a future
// miss. The data must be self-validating (a CSF1 frame or a CTR2
// store) — injected write faults may tear it, and the next read's
// integrity check is the only thing that catches that.
func (d *diskCache) writeRawEntry(path string, data []byte) {
	if !d.available() {
		return
	}
	var err error
	for attempt := 0; attempt < writeAttempts; attempt++ {
		if attempt > 0 {
			d.cRetry.Inc()
			backoff := backoffBase << (attempt - 1)
			if backoff > backoffCap {
				backoff = backoffCap
			}
			time.Sleep(backoff)
		}
		if err = atomicWrite(d.dir, path, data); err == nil {
			return
		}
	}
	d.fail(Transient(err))
}

// writeEntry persists one CSF1-framed entry via writeRawEntry.
func (d *diskCache) writeEntry(path string, payload []byte) {
	d.writeRawEntry(path, durable.EncodeFrame(payload))
}

// decodeFrame is durable.DecodeFrame with failures classed ErrCorrupt.
func decodeFrame(data []byte, maxLen int) ([]byte, error) {
	payload, err := durable.DecodeFrame(data, maxLen)
	return payload, Corrupt(err)
}

// resultEnvelope is the on-disk simulation-result format. The canonical
// key is stored alongside the payload and verified on load, guarding
// against hash collisions and scheme changes. Entries of TrackExact keys
// also carry the exact tracker's counts, without which they are misses.
type resultEnvelope struct {
	Key    string
	Result machine.Result
	Exact  *predictor.ExactCounts `json:",omitempty"`
}

func (d *diskCache) resultPath(canon string) string {
	return filepath.Join(d.dir, "sim-"+hashKey(canon)+".json")
}

func (d *diskCache) tracePath(canon string) string {
	return filepath.Join(d.dir, "trace-"+hashKey(canon)+".ctr")
}

// analysisEnvelope is the on-disk derived-analysis format, keyed and
// verified like resultEnvelope (the canon already folds in both
// schemaVersion and analysisVersion).
type analysisEnvelope struct {
	Key     string
	Summary CritSummary
}

func (d *diskCache) analysisPath(canon string) string {
	return filepath.Join(d.dir, "crit-"+hashKey(canon)+".json")
}

func (d *diskCache) loadAnalysis(canon string) (*CritSummary, bool) {
	path := d.analysisPath(canon)
	payload, ok := d.readEntry(path, maxJSONPayload)
	if !ok {
		return nil, false
	}
	var env analysisEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Key != canon {
		d.quarantine(path)
		return nil, false
	}
	return &env.Summary, true
}

func (d *diskCache) storeAnalysis(canon string, cs *CritSummary) {
	payload, err := json.Marshal(analysisEnvelope{Key: canon, Summary: *cs})
	if err != nil {
		d.fail(Fatal(err))
		return
	}
	d.writeEntry(d.analysisPath(canon), payload)
}

// schedEnvelope is the on-disk schedule-summary format, keyed and
// verified like resultEnvelope (the canon already folds in both
// schemaVersion and schedVersion).
type schedEnvelope struct {
	Key     string
	Summary SchedSummary
}

func (d *diskCache) schedPath(canon string) string {
	return filepath.Join(d.dir, "sched-"+hashKey(canon)+".json")
}

func (d *diskCache) loadSched(canon string) (*SchedSummary, bool) {
	path := d.schedPath(canon)
	payload, ok := d.readEntry(path, maxJSONPayload)
	if !ok {
		return nil, false
	}
	var env schedEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Key != canon {
		d.quarantine(path)
		return nil, false
	}
	return &env.Summary, true
}

func (d *diskCache) storeSched(canon string, ss *SchedSummary) {
	payload, err := json.Marshal(schedEnvelope{Key: canon, Summary: *ss})
	if err != nil {
		d.fail(Fatal(err))
		return
	}
	d.writeEntry(d.schedPath(canon), payload)
}

// loadResult returns the cached result for key and, when the entry
// persisted one, the rebuilt exact tracker (nil otherwise).
func (d *diskCache) loadResult(key SimKey) (machine.Result, *predictor.Exact, bool) {
	canon := key.String()
	path := d.resultPath(canon)
	payload, ok := d.readEntry(path, maxJSONPayload)
	if !ok {
		return machine.Result{}, nil, false
	}
	var env resultEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Key != canon {
		d.quarantine(path)
		return machine.Result{}, nil, false
	}
	var exact *predictor.Exact
	if env.Exact != nil {
		var err error
		if exact, err = predictor.ExactFromCounts(*env.Exact); err != nil {
			d.quarantine(path)
			return machine.Result{}, nil, false
		}
	}
	return env.Result, exact, true
}

// storeResult persists res, plus exact's counts when exact is non-nil.
func (d *diskCache) storeResult(key SimKey, res machine.Result, exact *predictor.Exact) {
	canon := key.String()
	env := resultEnvelope{Key: canon, Result: res}
	if exact != nil {
		counts := exact.Counts()
		env.Exact = &counts
	}
	payload, err := json.Marshal(env)
	if err != nil {
		d.fail(Fatal(err))
		return
	}
	d.writeEntry(d.resultPath(canon), payload)
}

// Trace entries are raw CTR2 chunked stores (see internal/trace): the
// format is self-framing — per-chunk CRC32-C, a CRC'd footer index and a
// sealed trailer — so no outer CSF1 frame is added, and the store's meta
// field carries the canonical key, verified on load exactly like
// resultEnvelope.Key. (The trace's length cannot be validated against
// TraceKey.Insts — the generators round the requested count up to block
// boundaries.) Entries written by older binaries (CSF1-framed CTR1
// streams) fail the CTR2 magic check, quarantine, and recompute — the
// established corruption path — so schemaVersion deliberately stays
// unbumped.

// decodeTraceEntry validates one raw trace entry and returns the open
// store: CTR2 geometry and key must check out and the trace must be
// non-empty (an empty entry is worthless and would let a truncated
// generation masquerade as a hit forever).
func decodeTraceEntry(data []byte, canon string, windowChunks int) (*trace.Store, error) {
	st, err := trace.OpenBytes(data, trace.OpenOptions{WindowChunks: windowChunks})
	if err != nil {
		return nil, err
	}
	if string(st.Meta()) != canon {
		st.Close()
		return nil, fmt.Errorf("trace key mismatch")
	}
	if st.Len() == 0 {
		st.Close()
		return nil, fmt.Errorf("empty trace entry")
	}
	return st, nil
}

func (d *diskCache) loadTrace(key TraceKey) (*trace.Trace, bool) {
	canon := key.String()
	path := d.tracePath(canon)
	data, ok := d.readRawEntry(path, maxTracePayload)
	if !ok {
		return nil, false
	}
	st, err := decodeTraceEntry(data, canon, 0)
	if err != nil {
		d.quarantine(path)
		return nil, false
	}
	defer st.Close()
	tr, err := st.Load()
	if err != nil {
		d.quarantine(path)
		return nil, false
	}
	return tr, true
}

func (d *diskCache) storeTrace(key TraceKey, tr *trace.Trace) {
	canon := key.String()
	var buf bytes.Buffer
	if err := trace.WriteStore(&buf, tr, trace.WriterOptions{Meta: []byte(canon)}); err != nil {
		d.fail(Fatal(err))
		return
	}
	d.writeRawEntry(d.tracePath(canon), buf.Bytes())
}

// loadTraceStore opens the cached trace for key as a windowed store
// without materializing it: chunks page in on demand, bounded by
// windowChunks. The store reads the entry file directly (file-backed, so
// a 100M-instruction hit costs one window of memory); validation follows
// loadTrace's contract — bad format, torn store, key mismatch or an
// empty trace quarantines, I/O errors count against the budget, and the
// caller sees only hit-or-miss.
func (d *diskCache) loadTraceStore(key TraceKey, windowChunks int) (*trace.Store, bool) {
	if !d.available() {
		return nil, false
	}
	canon := key.String()
	path := d.tracePath(canon)
	st, err := trace.Open(path, trace.OpenOptions{WindowChunks: windowChunks})
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false
		}
		if errors.Is(err, trace.ErrBadFormat) || errors.Is(err, trace.ErrTornStore) {
			d.quarantine(path)
		} else {
			d.fail(Transient(err))
		}
		return nil, false
	}
	if string(st.Meta()) != canon || st.Len() == 0 {
		st.Close()
		d.quarantine(path)
		return nil, false
	}
	return st, true
}

// createTraceStore streams a freshly generated trace straight into the
// cache entry for key through durable.WriteFileAtomic, holding one chunk
// in memory. gen's own errors propagate verbatim; I/O failures come back
// Transient, and the caller falls back to generating in memory.
func (d *diskCache) createTraceStore(key TraceKey, gen func(*trace.Writer) error) error {
	canon := key.String()
	var genErr error
	err := durable.WriteFileAtomic(d.tracePath(canon), func(out io.Writer) error {
		w, err := trace.NewWriter(out, trace.WriterOptions{Meta: []byte(canon)})
		if err != nil {
			return err
		}
		if genErr = gen(w); genErr != nil {
			return genErr
		}
		return w.Close()
	})
	if genErr != nil {
		return genErr
	}
	return Transient(err)
}

// atomicWrite writes data to path via a temp file and rename, so a
// crashed run never leaves a torn cache entry. Injected write faults may
// shorten the payload (a "successful" torn write) — the frame's CRC
// catches it on the next read.
//
// Unlike durable.WriteFileAtomic it does not fsync: an entry is an
// accelerator whose CSF1 frame turns a lost or torn entry into a
// quarantined miss. On ext4 (virtio disk, 2-vCPU Xeon VM) a 4 KiB
// temp+rename took 0.13 ms, 0.35 ms with file and directory fsyncs; a
// cold paper pass writes ~900 entries, so syncing would add ~0.2 s.
func atomicWrite(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	data, err = faultinject.WriteFault("cache.write", data)
	if err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := faultinject.Err("cache.rename"); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

package engine

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
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
	art     *Artifact
	crit    *CritSummary
	sched   *SchedSummary
	harvest *Harvest
	cost    int64
	elem    *list.Element
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

// diskCache persists summaries across processes: simulation results,
// analyses and schedule summaries are small JSON envelopes, appended as
// CSF1 frames to one segment file, summaries.csf, the only file in the
// cache dir (plus quarantine/ once damage is seen). Result envelopes
// carry the exact tracker's counts for TrackExact keys, so memory and
// disk hold the same Artifact value. Schedule harvests are never
// persisted; the schedule summaries derived from them are. Traces are
// never persisted either: a trace is a pure function of its TraceKey,
// and regenerating one is faster than reading it back.
//
// The segment exists because a cache miss used to cost a file: on a
// 2-vCPU Xeon VM's ext4 volume, creating a 4 KiB entry by temp+rename
// took 0.4-0.7 ms of kernel CPU, while appending to an open file takes
// 0.003 ms, and a traced server pass writes ~870 entries. Appends use
// O_APPEND, one write(2) per frame, so any number of engines and
// processes may share the segment without a lock: the kernel places each
// frame whole after the previous one. An engine keeps an in-memory index
// from canonical key to the offset of the key's newest frame, never the
// payload, and extends it by scanning only the bytes appended since its
// last scan, whenever a lookup misses. That is how an engine sees entries
// that other engines wrote after it opened.
//
// The disk layer is an accelerator, never a dependency, and every
// failure mode degrades instead of propagating:
//
//   - a frame that fails validation (torn, bit-flipped, foreign) is
//     skipped by resyncing to the next valid frame, counted in
//     engine.disk.quarantine and copied to <dir>/quarantine/; the entry
//     is a miss, so corruption triggers a recompute, never an error;
//   - transient read/write errors are retried with capped exponential
//     backoff and then counted as misses;
//   - after errorBudget hard failures the layer degrades to memory-only
//     for the rest of the process with a single stderr notice.
//
// Appends are not fsynced: a lost or torn entry is only a future miss.
// Files written by older binaries (one file per summary, trace-*.ctr
// trace entries, .tmp-* temps of interrupted writes) are never read and
// are safe to delete.
type diskCache struct {
	dir string

	// Failure accounting, shared with the engine's metrics registry.
	cErr        *metrics.Counter
	cRetry      *metrics.Counter
	cQuarantine *metrics.Counter

	budget   atomic.Int64
	degraded atomic.Bool
	notice   sync.Once

	// The summary segment's index. mu serializes scans; frames are read
	// outside it.
	mu      sync.Mutex
	index   map[string]span
	scanned int64 // segment bytes already indexed or skipped as damage
}

// span locates one frame in the segment, header included.
type span struct {
	off int64
	n   int
}

// segmentName is the summary segment's file name in the cache dir.
const segmentName = "summaries.csf"

// Disk-failure policy knobs. writeAttempts bounds the retry loop
// (first try + retries); backoffBase doubles per retry up to backoffCap.
const (
	writeAttempts      = 4
	backoffBase        = 200 * time.Microsecond
	backoffCap         = 2 * time.Millisecond
	defaultErrorBudget = 32
)

// maxJSONPayload bounds a frame's payload: summaries are small JSON.
const maxJSONPayload = 8 << 20

// scanWindow is the segment bytes one scan read covers; it grows for a
// frame larger than itself.
const scanWindow = 1 << 20

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
		index:       map[string]span{},
	}
	d.budget.Store(int64(errorBudget))
	return d, nil
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

// quarantineSpan counts damaged segment bytes starting at off and copies
// them to <dir>/quarantine/summaries.csf@<off> for post-mortem. The
// segment itself is never rewritten; scans simply skip the bytes.
func (d *diskCache) quarantineSpan(off int64, data []byte) {
	d.cQuarantine.Inc()
	qdir := filepath.Join(d.dir, "quarantine")
	if os.MkdirAll(qdir, 0o755) == nil {
		os.WriteFile(filepath.Join(qdir, fmt.Sprintf("%s@%d", segmentName, off)), data, 0o644)
	}
}

// retry runs write up to writeAttempts times with backoff. Write failures
// never propagate: by the time an entry is written the computed artifact
// is already in hand, so the worst case is a future miss. The data
// written must be a self-validating CSF1 frame: injected write faults may
// tear it, and the next scan's integrity check is the only thing that
// catches that.
func (d *diskCache) retry(write func() error) {
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
		if err = write(); err == nil {
			return
		}
	}
	d.fail(Transient(err))
}

// decodeFrame is durable.DecodeFrame with failures classed ErrCorrupt.
func decodeFrame(data []byte, maxLen int) ([]byte, error) {
	payload, err := durable.DecodeFrame(data, maxLen)
	return payload, Corrupt(err)
}

func (d *diskCache) segmentPath() string { return filepath.Join(d.dir, segmentName) }

// storeSummary appends one envelope to the segment as a CSF1 frame.
func (d *diskCache) storeSummary(envelope any) {
	payload, err := json.Marshal(envelope)
	if err != nil {
		d.fail(Fatal(err))
		return
	}
	frame := durable.EncodeFrame(payload)
	d.retry(func() error { return appendFrame(d.segmentPath(), frame) })
}

// appendFrame appends frame to the segment at path in one write(2) on an
// O_APPEND descriptor, so concurrent appenders never interleave. Opening
// per append costs ~0.01 ms and leaves no descriptor for the engine to
// own. Injected write faults may shorten the frame (a "successful" torn
// write), which scans skip as damage, or fail the open (cache.append).
func appendFrame(path string, frame []byte) error {
	frame, err := faultinject.WriteFault("cache.write", frame)
	if err == nil {
		err = faultinject.Err("cache.append")
	}
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(frame)
	return errors.Join(err, f.Close())
}

// loadSummary decodes the newest segment frame for canon into envelope,
// a pointer to an envelope struct, and reports a hit. check validates the
// decoded envelope (its Key must be canon). I/O errors count against the
// budget; a frame that no longer validates, decodes or passes check is
// quarantined.
func (d *diskCache) loadSummary(canon string, envelope any, check func() bool) bool {
	if !d.available() {
		return false
	}
	f, err := os.Open(d.segmentPath())
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			d.fail(Transient(err))
		}
		return false
	}
	defer f.Close()
	sp, ok, err := d.lookup(f, canon)
	if err != nil {
		d.fail(Transient(err))
		return false
	}
	if !ok {
		return false
	}
	data := make([]byte, sp.n)
	if _, err = f.ReadAt(data, sp.off); err == nil {
		data, err = faultinject.ReadFault("cache.read", data)
	}
	if err != nil {
		d.fail(Transient(err))
		return false
	}
	payload, err := decodeFrame(data, maxJSONPayload)
	if err == nil {
		err = json.Unmarshal(payload, envelope)
	}
	if err != nil || !check() {
		d.drop(canon, sp, data)
		return false
	}
	return true
}

// drop quarantines the frame at sp and forgets it, unless a scan has
// meanwhile indexed a newer frame for canon.
func (d *diskCache) drop(canon string, sp span, data []byte) {
	d.quarantineSpan(sp.off, data)
	d.mu.Lock()
	if d.index[canon] == sp {
		delete(d.index, canon)
	}
	d.mu.Unlock()
}

// lookup returns the span of canon's newest frame, first scanning the
// bytes appended to the segment since the last scan if the index lacks
// canon. f is open on the segment.
func (d *diskCache) lookup(f *os.File, canon string) (span, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if sp, ok := d.index[canon]; ok {
		return sp, true, nil
	}
	if err := d.scan(f); err != nil {
		return span{}, false, err
	}
	sp, ok := d.index[canon]
	return sp, ok, nil
}

// scan indexes the frames appended since the last scan, window by
// window, and quarantines damaged runs (d.mu held). It stops before a
// trailing frame that is still incomplete, which may be an append in
// flight, and retries it on the next scan.
func (d *diskCache) scan(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < d.scanned {
		// The segment was deleted and recreated: index it afresh.
		clear(d.index)
		d.scanned = 0
	}
	var buf []byte
	for want := scanWindow; d.scanned < fi.Size(); {
		n := int(min(fi.Size()-d.scanned, int64(want)))
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := f.ReadAt(buf, d.scanned); err != nil {
			return err
		}
		base := d.scanned
		consumed := durable.ScanFrames(buf, maxJSONPayload, func(off int, payload []byte) {
			sp := span{off: base + int64(off), n: durable.FrameHeaderLen + len(payload)}
			if key, ok := envelopeKey(payload); ok {
				d.index[key] = sp
			} else {
				d.quarantineSpan(sp.off, buf[off:off+sp.n])
			}
		}, func(off, end int) {
			d.quarantineSpan(base+int64(off), buf[off:end])
		})
		d.scanned += int64(consumed)
		if consumed > 0 {
			want = scanWindow
			continue
		}
		if int64(n) == fi.Size()-base || want > maxJSONPayload+durable.FrameHeaderLen {
			return nil // an incomplete frame at the end: maybe in flight
		}
		want *= 2 // a frame larger than the window
	}
	return nil
}

// envelopeKey returns the Key an envelope's JSON starts with. Every
// summary envelope marshals Key as its first field.
func envelopeKey(payload []byte) (string, bool) {
	rest, ok := bytes.CutPrefix(payload, []byte(`{"Key":"`))
	if !ok {
		return "", false
	}
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return "", false
	}
	if bytes.IndexByte(rest[:end], '\\') < 0 {
		return string(rest[:end]), true
	}
	// An escaped key: let the decoder find where the string ends.
	var key string
	err := json.NewDecoder(bytes.NewReader(payload[len(`{"Key":`):])).Decode(&key)
	return key, err == nil
}

// resultEnvelope is the on-disk simulation-result format. The canonical
// key is stored alongside the payload and verified on load, guarding
// against scheme changes. Entries of TrackExact keys also carry the exact
// tracker's counts, without which they are misses.
type resultEnvelope struct {
	Key    string
	Result machine.Result
	Exact  *predictor.ExactCounts `json:",omitempty"`
}

// analysisEnvelope is the on-disk derived-analysis format, keyed and
// verified like resultEnvelope (the canon already folds in
// schemaVersion, analysisVersion and the analysis depth).
type analysisEnvelope struct {
	Key     string
	Summary CritSummary
}

// loadAnalysis returns key's cached analysis. An entry whose products
// disagree with key's depth is a miss.
func (d *diskCache) loadAnalysis(key AnalysisKey) (*CritSummary, bool) {
	canon := key.String()
	var env analysisEnvelope
	if !d.loadSummary(canon, &env, func() bool {
		cs := &env.Summary
		return env.Key == canon && (cs.Matrix != nil) == key.Full && (cs.Slack != nil) == key.Full
	}) {
		return nil, false
	}
	return &env.Summary, true
}

func (d *diskCache) storeAnalysis(key AnalysisKey, cs *CritSummary) {
	d.storeSummary(analysisEnvelope{Key: key.String(), Summary: *cs})
}

// schedEnvelope is the on-disk schedule-summary format, keyed and
// verified like resultEnvelope (the canon already folds in both
// schemaVersion and schedVersion).
type schedEnvelope struct {
	Key     string
	Summary SchedSummary
}

func (d *diskCache) loadSched(canon string) (*SchedSummary, bool) {
	var env schedEnvelope
	if !d.loadSummary(canon, &env, func() bool { return env.Key == canon }) {
		return nil, false
	}
	return &env.Summary, true
}

func (d *diskCache) storeSched(canon string, ss *SchedSummary) {
	d.storeSummary(schedEnvelope{Key: canon, Summary: *ss})
}

// loadResult returns the cached result for key and, when the entry
// persisted one, the rebuilt exact tracker (nil otherwise).
func (d *diskCache) loadResult(key SimKey) (machine.Result, *predictor.Exact, bool) {
	canon := key.String()
	var env resultEnvelope
	var exact *predictor.Exact
	ok := d.loadSummary(canon, &env, func() bool {
		if env.Key != canon {
			return false
		}
		if env.Exact != nil {
			var err error
			exact, err = predictor.ExactFromCounts(*env.Exact)
			return err == nil
		}
		return true
	})
	if !ok {
		return machine.Result{}, nil, false
	}
	return env.Result, exact, true
}

// storeResult persists res, plus exact's counts when exact is non-nil.
func (d *diskCache) storeResult(key SimKey, res machine.Result, exact *predictor.Exact) {
	env := resultEnvelope{Key: key.String(), Result: res}
	if exact != nil {
		counts := exact.Counts()
		env.Exact = &counts
	}
	d.storeSummary(env)
}

package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/durable"
	"clustersim/internal/faultinject"
	"clustersim/internal/machine"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

func TestErrorTaxonomy(t *testing.T) {
	base := errors.New("boom")
	tr := Transient(base)
	if !errors.Is(tr, ErrTransient) || !errors.Is(tr, base) {
		t.Fatalf("Transient lost a sentinel: %v", tr)
	}
	if errors.Is(tr, ErrCorrupt) || errors.Is(tr, ErrFatal) {
		t.Fatalf("Transient matched a foreign class: %v", tr)
	}
	// The innermost classification wins across re-wrapping.
	re := Fatal(tr)
	if !errors.Is(re, ErrTransient) || errors.Is(re, ErrFatal) {
		t.Fatalf("re-classification overrode the original class: %v", re)
	}
	if Transient(nil) != nil || Corrupt(nil) != nil || Fatal(nil) != nil {
		t.Fatal("classifying nil must stay nil")
	}
	if !errors.Is(Corrupt(base), ErrCorrupt) {
		t.Fatal("Corrupt sentinel missing")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		framed := durable.EncodeFrame(payload)
		got, err := decodeFrame(framed, 1<<20)
		if err != nil {
			t.Fatalf("decode of valid frame failed: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mangled: %q != %q", got, payload)
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	framed := durable.EncodeFrame([]byte("the payload"))
	cases := map[string][]byte{
		"truncated header": framed[:durable.FrameHeaderLen-1],
		"truncated body":   framed[:len(framed)-2],
		"bad magic":        append([]byte{0xFF}, framed[1:]...),
		"trailing bytes":   append(append([]byte{}, framed...), 1),
	}
	flipped := append([]byte{}, framed...)
	flipped[durable.FrameHeaderLen+3] ^= 0x40
	cases["bit flip"] = flipped
	for name, data := range cases {
		if _, err := decodeFrame(data, 1<<20); err == nil {
			t.Errorf("%s: decode accepted corrupt frame", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error not classified Corrupt: %v", name, err)
		}
	}
	// maxLen guards against absurd declared lengths.
	if _, err := decodeFrame(framed, 4); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized frame not rejected: %v", err)
	}
}

// segmentSpans reads the summary segment in dir and lists its valid
// frames.
func segmentSpans(tb testing.TB, dir string) (data []byte, spans []span) {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segmentName))
	if err != nil {
		tb.Fatal(err)
	}
	durable.ScanFrames(data, maxJSONPayload, func(off int, payload []byte) {
		spans = append(spans, span{off: int64(off), n: durable.FrameHeaderLen + len(payload)})
	}, func(int, int) {})
	return data, spans
}

// corruptSegment flips a byte in the middle of every frame of the
// summary segment in dir and returns how many frames were damaged.
func corruptSegment(t *testing.T, dir string) int {
	t.Helper()
	data, spans := segmentSpans(t, dir)
	if len(spans) == 0 {
		t.Fatal("no summary frames in the segment")
	}
	for _, sp := range spans {
		data[sp.off+int64(sp.n/2)] ^= 0xFF
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return len(spans)
}

// TestCorruptResultQuarantinedAndRecomputed: a bit-flipped result frame
// must read as a miss, be copied to quarantine/, and be transparently
// recomputed — never surfaced as an error.
func TestCorruptResultQuarantinedAndRecomputed(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Config{CacheDir: dir})
	a1, err := simOne(e1, context.Background(), testSimKey(1), tinyRun(1))
	if err != nil {
		t.Fatal(err)
	}
	n := corruptSegment(t, dir)

	e2 := New(Config{CacheDir: dir})
	var runs atomic.Int64
	a2, err := simOne(e2, context.Background(), testSimKey(1), func(derive func(*machine.Machine) error) (Artifact, error) {
		runs.Add(1)
		return runTiny(1, derive)
	})
	if err != nil {
		t.Fatalf("corruption surfaced as an error: %v", err)
	}
	if runs.Load() != 1 {
		t.Fatalf("corrupt entry did not force a recompute (runs=%d)", runs.Load())
	}
	if a2.Res != a1.Res {
		t.Fatal("recomputed result differs from original")
	}
	q, _ := filepath.Glob(filepath.Join(dir, "quarantine", segmentName+"@*"))
	if len(q) != n {
		t.Fatalf("quarantine holds %d files, want %d", len(q), n)
	}
	if s := e2.Summary(); s.Quarantines != int64(n) {
		t.Errorf("Quarantines = %d, want %d", s.Quarantines, n)
	}
	// The recompute appended a valid frame: a third engine skips the
	// damaged one and gets a clean disk hit.
	e3 := New(Config{CacheDir: dir})
	if _, err := simOne(e3, context.Background(), testSimKey(1), func(derive func(*machine.Machine) error) (Artifact, error) {
		t.Error("clean rewritten entry missed")
		return runTiny(1, derive)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFaultsNeverFailRuns pins the satellite fix: when the
// computed artifact is already in hand, disk-write failures are counted,
// not returned — even at a 100% injected write-fault rate.
func TestWriteFaultsNeverFailRuns(t *testing.T) {
	defer faultinject.Disable()
	dir := t.TempDir()
	e := New(Config{CacheDir: dir, DiskErrorBudget: 4})
	faultinject.Enable(1234, 1)
	a, err := simOne(e, context.Background(), testSimKey(1), tinyRun(1))
	faultinject.Disable()
	if err != nil {
		t.Fatalf("write faults leaked into the run: %v", err)
	}
	if a.Res.Insts == 0 {
		t.Fatal("run produced no result")
	}
	s := e.Summary()
	if s.DiskErrors == 0 && s.Quarantines == 0 {
		t.Error("injected write faults left no trace in the counters")
	}
}

// TestDegradedModeAfterBudget: sustained write errors exhaust the error
// budget and flip the disk layer to memory-only; the engine keeps
// producing correct results.
func TestDegradedModeAfterBudget(t *testing.T) {
	defer faultinject.Disable()
	dir := t.TempDir()
	e := New(Config{CacheDir: dir, DiskErrorBudget: 2})
	faultinject.Enable(99, 1)
	for seed := uint64(1); seed <= 6; seed++ {
		s := seed
		if _, err := simOne(e, context.Background(), testSimKey(s), tinyRun(s)); err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
	}
	faultinject.Disable()
	s := e.Summary()
	if !s.DiskDegraded {
		t.Fatalf("disk layer did not degrade (errors=%d retries=%d)", s.DiskErrors, s.DiskRetries)
	}
	if s.DiskRetries == 0 {
		t.Error("no retries recorded before degrading")
	}
	// Degraded means memory-only, not broken: cached entries still hit.
	var runs atomic.Int64
	if _, err := simOne(e, context.Background(), testSimKey(1), func(derive func(*machine.Machine) error) (Artifact, error) {
		runs.Add(1)
		return runTiny(1, derive)
	}); err != nil || runs.Load() != 0 {
		t.Fatalf("memory cache broken after degrade: err=%v runs=%d", err, runs.Load())
	}
}

// TestContextCancellationDrains: cancelling a MapCtx call's context
// mid-run fails its pending items fast while completed results stand.
func TestContextCancellationDrains(t *testing.T) {
	e := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 8)
	var ran atomic.Int64
	_, err := MapCtx(ctx, e, items, func(i int, _ int) (int, error) {
		ran.Add(1)
		if i == 1 {
			cancel()
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("cancelled Map returned no error")
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrFatal) {
		t.Fatalf("cancellation error lost its identity: %v", err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d items after cancel, want 2", got)
	}
	// The cancelled context also refuses new cache misses...
	if _, err := simOne(e, ctx, testSimKey(1), tinyRun(1)); err == nil {
		t.Fatal("simulation miss succeeded under a cancelled context")
	}
	// ...while a live one on the same engine still computes.
	if _, err := simOne(e, context.Background(), testSimKey(1), tinyRun(1)); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedWorkerPanicRetried: chaos panics inside Map jobs are
// retried in place and never change results.
func TestInjectedWorkerPanicRetried(t *testing.T) {
	defer faultinject.Disable()
	e := New(Config{Workers: 4})
	faultinject.Enable(7, 0.3)
	items := make([]int, 64)
	out, err := MapCtx(context.Background(), e, items, func(i int, _ int) (int, error) { return i * i, nil })
	faultinject.Disable()
	if err != nil {
		t.Fatalf("Map under injected panics failed: %v", err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d after panic retry", i, v)
		}
	}
	if faultinject.Snapshot().Panics == 0 {
		t.Error("no panics were injected at rate 0.3 over 64 jobs")
	}
}

// TestGenuinePanicStillFails: only injected panics are retried; a real
// bug keeps its stack trace and fails the Map.
func TestGenuinePanicStillFails(t *testing.T) {
	e := New(Config{Workers: 2})
	_, err := MapCtx(context.Background(), e, []int{0}, func(int, int) (int, error) { panic("real bug") })
	if err == nil || !strings.Contains(err.Error(), "real bug") {
		t.Fatalf("genuine panic not surfaced: %v", err)
	}
}

// TestSoftJobDeadlineCounted: jobs over Config.JobDeadline are counted
// but their results stand.
func TestSoftJobDeadlineCounted(t *testing.T) {
	e := New(Config{Workers: 2, JobDeadline: time.Nanosecond})
	out, err := MapCtx(context.Background(), e, []int{1, 2}, func(i int, v int) (int, error) {
		time.Sleep(time.Millisecond)
		return v, nil
	})
	if err != nil || out[0] != 1 || out[1] != 2 {
		t.Fatalf("soft deadline changed results: %v %v", out, err)
	}
	if s := e.Summary(); s.JobDeadlineMisses != 2 {
		t.Errorf("JobDeadlineMisses = %d, want 2", s.JobDeadlineMisses)
	}
}

// TestDiskCorruptAnalysisAndSched covers the two derived-summary
// readers directly against a scrambled payload behind a valid CRC (the
// JSON layer must quarantine, not error).
func TestDiskCorruptAnalysisAndSched(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{CacheDir: dir})
	d := e.disk
	ana := testAnaKey(1, false)
	d.storeAnalysis(ana, &CritSummary{})
	d.storeSched("k-sched", &SchedSummary{Insts: 1})

	// Probes of absent keys are plain misses, not quarantines.
	if _, ok := d.loadAnalysis(testAnaKey(2, false)); ok {
		t.Fatal("analysis served under the wrong key")
	}
	if _, ok := d.loadSched("another-key"); ok {
		t.Fatal("sched served under the wrong key")
	}
	// Append undecodable payloads behind fresh CRCs as the keys' newest
	// frames; a fresh engine indexes them and must quarantine both.
	for _, payload := range []string{`{"Key":"` + ana.String() + `","Summary":{not json`, `{"Key":"k-sched","Summary":][`} {
		if err := appendFrame(d.segmentPath(), durable.EncodeFrame([]byte(payload))); err != nil {
			t.Fatal(err)
		}
	}
	d = New(Config{CacheDir: dir}).disk
	if _, ok := d.loadAnalysis(ana); ok {
		t.Fatal("undecodable analysis served")
	}
	if _, ok := d.loadSched("k-sched"); ok {
		t.Fatal("undecodable sched served")
	}
	if got := d.cQuarantine.Load(); got != 2 {
		t.Errorf("quarantines = %d, want 2 (undecodable payloads only)", got)
	}
}

// TestSegmentTornFrameQuarantined: a frame torn in the middle of the
// segment (cut inside its header or its body) is skipped and quarantined,
// and every frame appended after it still loads.
func TestSegmentTornFrameQuarantined(t *testing.T) {
	for _, cut := range []int{5, durable.FrameHeaderLen + 40} {
		dir := t.TempDir()
		e1 := New(Config{CacheDir: dir})
		for seed := uint64(1); seed <= 2; seed++ {
			if _, err := simOne(e1, context.Background(), testSimKey(seed), tinyRun(seed)); err != nil {
				t.Fatal(err)
			}
		}
		res, _ := runTiny(3, nil)
		payload, err := json.Marshal(resultEnvelope{Key: testSimKey(3).String(), Result: res.Res})
		if err != nil {
			t.Fatal(err)
		}
		if err := appendFrame(e1.disk.segmentPath(), durable.EncodeFrame(payload)[:cut]); err != nil {
			t.Fatal(err)
		}
		if _, err := simOne(e1, context.Background(), testSimKey(4), tinyRun(4)); err != nil {
			t.Fatal(err)
		}

		e2 := New(Config{CacheDir: dir})
		for seed := uint64(1); seed <= 4; seed++ {
			var runs atomic.Int64
			if _, err := simOne(e2, context.Background(), testSimKey(seed), func(derive func(*machine.Machine) error) (Artifact, error) {
				runs.Add(1)
				return runTiny(seed, derive)
			}); err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if seed == 3 { // the torn entry
				want = 1
			}
			if runs.Load() != want {
				t.Errorf("cut %d: seed %d ran %d times, want %d", cut, seed, runs.Load(), want)
			}
		}
		if s := e2.Summary(); s.Quarantines != 1 {
			t.Errorf("cut %d: Quarantines = %d, want 1", cut, s.Quarantines)
		}
	}
}

// TestSegmentInFlightFrameRetried: a frame cut off by the end of the
// segment may be an append still in flight, so a scan stops before it
// without quarantining it and indexes it once its bytes have all landed.
func TestSegmentInFlightFrameRetried(t *testing.T) {
	dir := t.TempDir()
	d := New(Config{CacheDir: dir}).disk
	d.storeSched("k-a", &SchedSummary{Insts: 1})
	payload, err := json.Marshal(schedEnvelope{Key: "k-b", Summary: SchedSummary{Insts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	frame := durable.EncodeFrame(payload)
	half := len(frame) / 2
	if err := appendFrame(d.segmentPath(), frame[:half]); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.loadSched("k-a"); !ok {
		t.Fatal("complete frame before the partial one missed")
	}
	if _, ok := d.loadSched("k-b"); ok {
		t.Fatal("partial frame served")
	}
	if err := appendFrame(d.segmentPath(), frame[half:]); err != nil {
		t.Fatal(err)
	}
	if ss, ok := d.loadSched("k-b"); !ok || ss.Insts != 2 {
		t.Fatalf("completed frame: ok=%v summary=%+v", ok, ss)
	}
	if got := d.cQuarantine.Load(); got != 0 {
		t.Errorf("quarantines = %d, want 0 for a frame in flight", got)
	}
}

// TestSegmentSeesLaterAppends: an engine that opened (and scanned) the
// segment before another engine wrote still hits the other's entries,
// because a lookup miss scans the bytes appended since its last scan.
func TestSegmentSeesLaterAppends(t *testing.T) {
	dir := t.TempDir()
	b := New(Config{CacheDir: dir})
	a := New(Config{CacheDir: dir})
	if _, err := simOne(a, context.Background(), testSimKey(1), tinyRun(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := simOne(b, context.Background(), testSimKey(1), func(derive func(*machine.Machine) error) (Artifact, error) {
		t.Error("b missed a's first entry")
		return runTiny(1, derive)
	}); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(2); seed <= 3; seed++ {
		if _, err := a.AnalysisCtx(context.Background(), testAnaKey(seed, true), tinyRun(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(2); seed <= 3; seed++ {
		if _, err := b.AnalysisCtx(context.Background(), testAnaKey(seed, true), func(derive func(*machine.Machine) error) (Artifact, error) {
			t.Errorf("b missed a's analysis of seed %d", seed)
			return runTiny(seed, derive)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := b.Summary(); s.SimDiskHits != 1 || s.AnaDiskHits != 2 || s.Quarantines != 0 {
		t.Errorf("b: sim disk hits %d, analysis disk hits %d, quarantines %d; want 1, 2, 0",
			s.SimDiskHits, s.AnaDiskHits, s.Quarantines)
	}
}

// TestSegmentConcurrentEngines: several engines append to one segment at
// once (run it under -race). No frame may interleave with another, so a
// fresh engine hits every key without a single quarantine.
func TestSegmentConcurrentEngines(t *testing.T) {
	dir := t.TempDir()
	const engines, keys = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, engines)
	for i := 0; i < engines; i++ {
		e := New(Config{CacheDir: dir, Workers: 2})
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for j := 0; j < keys; j++ {
				seed := uint64((first+j)%keys + 1)
				if _, err := e.AnalysisCtx(context.Background(), testAnaKey(seed, true), tinyRun(seed)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fresh := New(Config{CacheDir: dir})
	for seed := uint64(1); seed <= keys; seed++ {
		run := func(derive func(*machine.Machine) error) (Artifact, error) {
			t.Errorf("seed %d missed after concurrent appends", seed)
			return runTiny(seed, derive)
		}
		if _, err := simOne(fresh, context.Background(), testSimKey(seed), run); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.AnalysisCtx(context.Background(), testAnaKey(seed, true), run); err != nil {
			t.Fatal(err)
		}
	}
	if s := fresh.Summary(); s.Quarantines != 0 {
		t.Errorf("Quarantines = %d after clean concurrent appends", s.Quarantines)
	}
}

// TestCacheDirLayout: summaries of every kind share the one segment,
// and the segment is the only file in the cache dir: traces are never
// written.
func TestCacheDirLayout(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{CacheDir: dir})
	if _, err := e.Trace(testTraceKey(1), func() (*trace.Trace, error) {
		return workload.Generate("gzip", testInsts, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := simOne(e, context.Background(), testSimKey(1), tinyRun(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AnalysisCtx(context.Background(), testAnaKey(2, true), tinyRun(2)); err != nil {
		t.Fatal(err)
	}
	keys := []SchedKey{testSchedKey("oracle", 2), testSchedKey("oracle", 4)}
	if _, err := e.SchedulesCtx(context.Background(), keys, func(miss []int) ([]SchedSummary, error) {
		return make([]SchedSummary, len(miss)), nil
	}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != segmentName {
		names := make([]string, len(ents))
		for i, ent := range ents {
			names[i] = ent.Name()
		}
		t.Errorf("cache dir holds %v, want exactly [%s]", names, segmentName)
	}
	// One result, one analysis plus its run's result, two schedules.
	if _, spans := segmentSpans(t, dir); len(spans) != 5 {
		t.Errorf("segment holds %d frames, want 5", len(spans))
	}
}

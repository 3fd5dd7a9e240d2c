package engine

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"clustersim/internal/trace"
	"clustersim/internal/trace/tracetest"
	"clustersim/internal/workload"
)

// chunkGen returns a streaming generator for the canonical test trace,
// counting invocations.
func chunkGen(gens *atomic.Int64, seed uint64) func(*trace.Writer) error {
	return func(w *trace.Writer) error {
		gens.Add(1)
		return workload.GenerateChunked("gzip", testInsts, seed, w)
	}
}

// quarantined lists the basenames in dir's quarantine folder.
func quarantined(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

func TestTraceStoreCaching(t *testing.T) {
	e := New(Config{Workers: 2})
	var gens atomic.Int64
	st1, err := e.TraceStore(testTraceKey(1), chunkGen(&gens, 1))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := e.TraceStore(testTraceKey(1), chunkGen(&gens, 1))
	if err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 1 {
		t.Errorf("generator ran %d times, want 1", gens.Load())
	}
	if st1 != st2 {
		t.Error("cached store is not the same object")
	}
	want, err := workload.Generate("gzip", testInsts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Len() != int64(want.Len()) {
		t.Fatalf("store holds %d insts, want %d", st1.Len(), want.Len())
	}
	got, err := st1.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Insts {
		if got.Insts[i] != want.Insts[i] || got.Deps[i] != want.Deps[i] {
			t.Fatalf("inst %d: streamed generation diverged from in-memory", i)
		}
	}
}

func TestTraceStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var gens atomic.Int64
	e1 := New(Config{CacheDir: dir})
	if _, err := e1.TraceStore(testTraceKey(1), chunkGen(&gens, 1)); err != nil {
		t.Fatal(err)
	}
	// A second engine over the same dir must page the entry back in
	// without regenerating.
	e2 := New(Config{CacheDir: dir, TraceWindowChunks: 2})
	st, err := e2.TraceStore(testTraceKey(1), chunkGen(&gens, 1))
	if err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 1 {
		t.Errorf("generator ran %d times, want 1 (disk hit expected)", gens.Load())
	}
	if st.WindowChunks() != 2 {
		t.Errorf("window = %d chunks, want 2", st.WindowChunks())
	}
	if st.Len() != int64(testInsts) && st.Len() <= 0 {
		t.Fatalf("implausible store length %d", st.Len())
	}
	if got := quarantined(t, dir); len(got) != 0 {
		t.Fatalf("round-trip quarantined %v", got)
	}
}

func TestTraceAndTraceStoreShareEntry(t *testing.T) {
	// Trace (materialized) and TraceStore (windowed) must read and write
	// one on-disk entry format, in both directions.
	dir := t.TempDir()
	e1 := New(Config{CacheDir: dir})
	want, err := e1.Trace(testTraceKey(1), func() (*trace.Trace, error) {
		return workload.Generate("gzip", testInsts, 1)
	})
	if err != nil {
		t.Fatal(err)
	}

	var gens atomic.Int64
	e2 := New(Config{CacheDir: dir})
	st, err := e2.TraceStore(testTraceKey(1), chunkGen(&gens, 1))
	if err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 0 {
		t.Errorf("TraceStore regenerated despite Trace's disk entry (gens=%d)", gens.Load())
	}
	if st.Len() != int64(want.Len()) {
		t.Fatalf("store len %d != trace len %d", st.Len(), want.Len())
	}

	// Reverse direction: an entry streamed by TraceStore serves Trace.
	dir2 := t.TempDir()
	e3 := New(Config{CacheDir: dir2})
	if _, err := e3.TraceStore(testTraceKey(1), chunkGen(&gens, 1)); err != nil {
		t.Fatal(err)
	}
	e4 := New(Config{CacheDir: dir2})
	got, err := e4.Trace(testTraceKey(1), func() (*trace.Trace, error) {
		t.Fatal("Trace regenerated despite TraceStore's disk entry")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("trace len %d != %d", got.Len(), want.Len())
	}
	for i := range want.Insts {
		if got.Insts[i] != want.Insts[i] || got.Deps[i] != want.Deps[i] {
			t.Fatalf("inst %d: disk round-trip diverged", i)
		}
	}
}

// legacyTraceEntry encodes a trace the way pre-CTR2 binaries did: a CSF1
// frame around a uvarint key envelope plus the CTR1 record stream (the
// layout tracetest encodes).
func legacyTraceEntry(canon string, tr *trace.Trace) []byte {
	var buf bytes.Buffer
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(canon)))
	buf.Write(hdr[:n])
	buf.WriteString(canon)
	buf.Write(tracetest.Encode(tr))
	return encodeFrame(buf.Bytes())
}

func TestLegacyTraceEntryQuarantinedAndRecomputed(t *testing.T) {
	dir := t.TempDir()
	tr, err := workload.Generate("gzip", testInsts, 1)
	if err != nil {
		t.Fatal(err)
	}
	canon := testTraceKey(1).String()
	e := New(Config{CacheDir: dir})
	path := e.disk.tracePath(canon)
	if err := os.WriteFile(path, legacyTraceEntry(canon, tr), 0o644); err != nil {
		t.Fatal(err)
	}

	// The legacy entry fails the CTR2 magic check: it must be treated as
	// a miss (regenerate), moved to quarantine, and replaced by a fresh
	// CTR2 entry that subsequent loads hit.
	var gens atomic.Int64
	gen := func() (*trace.Trace, error) {
		gens.Add(1)
		return workload.Generate("gzip", testInsts, 1)
	}
	if _, err := e.Trace(testTraceKey(1), gen); err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 1 {
		t.Fatalf("generator ran %d times, want 1 (legacy entry must miss)", gens.Load())
	}
	if got := quarantined(t, dir); len(got) != 1 {
		t.Fatalf("quarantine holds %v, want the legacy entry", got)
	}
	if tr2, ok := e.disk.loadTrace(testTraceKey(1)); !ok || tr2.Len() != tr.Len() {
		t.Fatalf("rewritten entry does not load (ok=%v)", ok)
	}
}

func TestCorruptTraceEntryRecomputed(t *testing.T) {
	// All three corruptions must be detected by the eager Trace path
	// (which materializes every chunk), quarantined, and recomputed.
	// TraceStore eagerly rejects the first two as well; a bit-flipped
	// chunk under an intact footer is only caught lazily on chunk access,
	// which is why the engine's materializing path stays the validator of
	// record for whole-trace loads.
	for name, mangle := range map[string]func(canon string) []byte{
		"garbage": func(string) []byte { return []byte("not a trace store at all") },
		"foreign-key": func(string) []byte {
			tr, err := workload.Generate("gzip", testInsts, 1)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := trace.WriteStore(&buf, tr, trace.WriterOptions{Meta: []byte("some other key")}); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		"bit-flip": func(canon string) []byte {
			tr, err := workload.Generate("gzip", testInsts, 1)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := trace.WriteStore(&buf, tr, trace.WriterOptions{Meta: []byte(canon)}); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			data[len(data)/2] ^= 0x40
			return data
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e := New(Config{CacheDir: dir})
			canon := testTraceKey(1).String()
			if err := os.WriteFile(e.disk.tracePath(canon), mangle(canon), 0o644); err != nil {
				t.Fatal(err)
			}
			var gens atomic.Int64
			tr, err := e.Trace(testTraceKey(1), func() (*trace.Trace, error) {
				gens.Add(1)
				return workload.Generate("gzip", testInsts, 1)
			})
			if err != nil {
				t.Fatal(err)
			}
			if gens.Load() != 1 {
				t.Fatalf("generator ran %d times, want 1", gens.Load())
			}
			if tr.Len() == 0 {
				t.Fatal("recomputed trace is empty")
			}
			if got := quarantined(t, dir); len(got) != 1 {
				t.Fatalf("quarantine holds %v, want the corrupt entry", got)
			}
			if _, ok := e.disk.loadTrace(testTraceKey(1)); !ok {
				t.Fatal("rewritten entry does not load")
			}
		})
	}
}

func TestTraceStoreRejectsGarbageEntry(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{CacheDir: dir})
	canon := testTraceKey(1).String()
	if err := os.WriteFile(e.disk.tracePath(canon), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var gens atomic.Int64
	st, err := e.TraceStore(testTraceKey(1), chunkGen(&gens, 1))
	if err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 1 {
		t.Fatalf("generator ran %d times, want 1", gens.Load())
	}
	if st.Len() <= 0 {
		t.Fatal("recomputed store is empty")
	}
	if got := quarantined(t, dir); len(got) != 1 {
		t.Fatalf("quarantine holds %v, want the garbage entry", got)
	}
}

func TestTraceStoreSingleflight(t *testing.T) {
	e := New(Config{Workers: 4})
	var gens atomic.Int64
	const callers = 8
	stores := make([]*trace.Store, callers)
	errs := make([]error, callers)
	done := make(chan int, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			stores[i], errs[i] = e.TraceStore(testTraceKey(1), chunkGen(&gens, 1))
			done <- i
		}(i)
	}
	for i := 0; i < callers; i++ {
		<-done
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if stores[i] != stores[0] {
			t.Fatal("concurrent callers got different stores")
		}
	}
	if gens.Load() != 1 {
		t.Fatalf("generator ran %d times, want 1", gens.Load())
	}
}

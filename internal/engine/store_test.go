package engine

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"clustersim/internal/durable"
	"clustersim/internal/trace"
	"clustersim/internal/trace/tracetest"
	"clustersim/internal/workload"
)

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
	return durable.EncodeFrame(buf.Bytes())
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
	// All three corruptions must be detected by the Trace path (which
	// materializes every chunk, so a bit-flipped chunk under an intact
	// footer is caught too), quarantined, and recomputed.
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

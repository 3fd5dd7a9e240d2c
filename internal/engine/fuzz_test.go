package engine

import (
	"encoding/json"
	"os"
	"testing"

	"clustersim/internal/durable"
	"clustersim/internal/machine"
	"clustersim/internal/metrics"
	"clustersim/internal/predictor"
	"clustersim/internal/workload"
)

// The fuzz targets drive the four disk-cache decode paths (trace,
// result with and without exact counts, analysis, sched) plus the
// shared frame reader with arbitrary bytes. The contract under fuzz is the cache's corruption promise: a
// loader may miss (and quarantine), but it must never panic and never
// return ok for bytes that aren't a well-formed entry of its key. Seeds
// are real encoded entries produced by the same writers that populate a
// production cache dir, plus their torn and bit-flipped variants.

// seedEntries builds genuine on-disk bytes for all four artifact kinds.
func seedEntries(tb testing.TB) (traceBytes, resultBytes, anaBytes, schedBytes []byte) {
	tb.Helper()
	dir := tb.TempDir()
	d, err := newDiskCache(dir, metrics.NewRegistry(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := workload.Generate("gzip", testInsts, 1)
	if err != nil {
		tb.Fatal(err)
	}
	d.storeTrace(testTraceKey(1), tr)
	d.storeResult(testSimKey(1), machine.Result{ConfigName: "1x8w", Insts: 300, Cycles: 400}, nil)
	d.storeAnalysis(analysisCanon(testSimKey(1)), &CritSummary{})
	d.storeSched("sched-key", &SchedSummary{Insts: 300, Makespan: 99})
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return read(d.tracePath(testTraceKey(1).String())),
		read(d.resultPath(testSimKey(1).String())),
		read(d.analysisPath(analysisCanon(testSimKey(1)))),
		read(d.schedPath("sched-key"))
}

// addSeedVariants seeds f with data plus classic corruptions of it.
func addSeedVariants(f *testing.F, data []byte) {
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:durable.FrameHeaderLen-1])
	flipped := append([]byte{}, data...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add(append(append([]byte{}, data...), 0xFF))
}

// fuzzCache builds a throwaway disk cache holding data at path(canon)
// and returns it; the registry keeps counters isolated per iteration.
func fuzzCache(t *testing.T, data []byte, path func(d *diskCache) string) *diskCache {
	t.Helper()
	d, err := newDiskCache(t.TempDir(), metrics.NewRegistry(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path(d), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return d
}

func FuzzFrameDecode(f *testing.F) {
	_, resultBytes, _, _ := seedEntries(f)
	addSeedVariants(f, resultBytes)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeFrame(data, maxJSONPayload)
		if err == nil && len(data) != durable.FrameHeaderLen+len(payload) {
			t.Fatalf("frame accepted with wrong geometry: %d bytes, %d payload", len(data), len(payload))
		}
	})
}

func FuzzLoadTrace(f *testing.F) {
	traceBytes, _, _, _ := seedEntries(f)
	addSeedVariants(f, traceBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		key := testTraceKey(1)
		d := fuzzCache(t, data, func(d *diskCache) string { return d.tracePath(key.String()) })
		if tr, ok := d.loadTrace(key); ok && tr.Len() == 0 {
			t.Fatal("loadTrace returned ok with an empty trace")
		}
	})
}

// exactSimKey is testSimKey(1) with exact tracking: its result entries
// carry the tracker's counts.
func exactSimKey() SimKey {
	k := testSimKey(1)
	k.TrackExact = true
	return k
}

// seedExactResult builds a genuine result entry carrying exact counts.
func seedExactResult(tb testing.TB) []byte {
	tb.Helper()
	d, err := newDiskCache(tb.TempDir(), metrics.NewRegistry(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	exact := predictor.NewExact()
	for i := 0; i < 64; i++ {
		exact.Train(uint64(i%7)*4, i%3 == 0)
	}
	key := exactSimKey()
	d.storeResult(key, machine.Result{ConfigName: "1x8w", Insts: 300, Cycles: 400}, exact)
	data, err := os.ReadFile(d.resultPath(key.String()))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzLoadResult loads each input under a plain and an exact-tracking
// key, so seeds of either kind drive the whole envelope decode.
func FuzzLoadResult(f *testing.F) {
	_, resultBytes, _, _ := seedEntries(f)
	addSeedVariants(f, resultBytes)
	addSeedVariants(f, seedExactResult(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range []SimKey{testSimKey(1), exactSimKey()} {
			d := fuzzCache(t, data, func(d *diskCache) string { return d.resultPath(key.String()) })
			res, exact, ok := d.loadResult(key)
			if !ok {
				continue
			}
			// An accepted entry must really carry the canonical key, and
			// its exact counts iff it returned a tracker.
			payload, err := decodeFrame(data, maxJSONPayload)
			if err != nil {
				t.Fatal("loadResult accepted a corrupt frame")
			}
			var env resultEnvelope
			if json.Unmarshal(payload, &env) != nil || env.Key != key.String() {
				t.Fatalf("loadResult accepted a foreign envelope: %+v", res)
			}
			if (env.Exact != nil) != (exact != nil) {
				t.Fatalf("loadResult exact tracker %v for envelope counts %v", exact != nil, env.Exact != nil)
			}
		}
	})
}

func FuzzLoadAnalysis(f *testing.F) {
	_, _, anaBytes, _ := seedEntries(f)
	addSeedVariants(f, anaBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		canon := analysisCanon(testSimKey(1))
		d := fuzzCache(t, data, func(d *diskCache) string { return d.analysisPath(canon) })
		d.loadAnalysis(canon)
	})
}

func FuzzLoadSched(f *testing.F) {
	_, _, _, schedBytes := seedEntries(f)
	addSeedVariants(f, schedBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		const canon = "sched-key"
		d := fuzzCache(t, data, func(d *diskCache) string { return d.schedPath(canon) })
		d.loadSched(canon)
	})
}

func FuzzJournalReplay(f *testing.F) {
	_, resultBytes, _, _ := seedEntries(f)
	// A well-formed journal is a concatenation of frames; seed with a
	// real record stream and with raw cache bytes (also framed).
	rec, _ := json.Marshal(journalRecord{
		Kind: recResult, Key: testSimKey(1).String(), Result: &machine.Result{Insts: 300},
	})
	stream := append(durable.EncodeFrame(rec), durable.EncodeFrame(rec)...)
	addSeedVariants(f, stream)
	f.Add(resultBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := t.TempDir() + "/j"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e := New(Config{})
		restored, err := e.OpenJournal(path, true)
		if err != nil {
			t.Fatalf("replay errored on arbitrary bytes: %v", err)
		}
		e.CloseJournal()
		if restored < 0 {
			t.Fatal("negative restore count")
		}
	})
}

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
// result with and without exact counts, analysis, sched), the summary
// segment's scan, and the shared frame reader with arbitrary bytes. The
// contract under fuzz is the cache's corruption promise: a loader may
// miss (and quarantine), but it must never panic and never return ok
// for bytes that aren't a well-formed entry of its key. Seeds are real
// encoded entries produced by the same writers that populate a
// production cache dir, plus their torn and bit-flipped variants.

// seedEntries builds genuine on-disk bytes for all four artifact kinds:
// the trace file, and each summary's frame from the segment.
func seedEntries(tb testing.TB) (traceBytes, resultBytes, anaBytes, schedBytes []byte) {
	tb.Helper()
	d, err := newDiskCache(tb.TempDir(), metrics.NewRegistry(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := workload.Generate("gzip", testInsts, 1)
	if err != nil {
		tb.Fatal(err)
	}
	d.storeTrace(testTraceKey(1), tr)
	d.storeResult(testSimKey(1), machine.Result{ConfigName: "1x8w", Insts: 300, Cycles: 400}, nil)
	d.storeAnalysis(testAnaKey(1, false), &CritSummary{})
	d.storeSched("sched-key", &SchedSummary{Insts: 300, Makespan: 99})
	traceBytes, err = os.ReadFile(d.tracePath(testTraceKey(1).String()))
	if err != nil {
		tb.Fatal(err)
	}
	frames := segmentFrames(tb, d)
	if len(frames) != 3 {
		tb.Fatalf("segment holds %d frames, want 3", len(frames))
	}
	return traceBytes, frames[0], frames[1], frames[2]
}

// segmentFrames returns the bytes of each valid frame in d's segment.
func segmentFrames(tb testing.TB, d *diskCache) [][]byte {
	tb.Helper()
	data, spans := segmentSpans(tb, d.dir)
	frames := make([][]byte, len(spans))
	for i, sp := range spans {
		frames[i] = data[sp.off : sp.off+int64(sp.n)]
	}
	return frames
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

// fuzzCache builds a throwaway disk cache holding data at path(d) (the
// segment, or a trace entry) and returns it; the registry keeps counters
// isolated per iteration.
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
	d.storeResult(exactSimKey(), machine.Result{ConfigName: "1x8w", Insts: 300, Cycles: 400}, exact)
	return segmentFrames(tb, d)[0]
}

// newestFrame returns the payload of the last valid frame in a segment
// whose envelope carries canon, or nil.
func newestFrame(data []byte, canon string) []byte {
	var newest []byte
	durable.ScanFrames(data, maxJSONPayload, func(_ int, payload []byte) {
		if key, ok := envelopeKey(payload); ok && key == canon {
			newest = payload
		}
	}, func(int, int) {})
	return newest
}

// FuzzLoadResult loads each input as a segment under a plain and an
// exact-tracking key, so seeds of either kind drive the whole envelope
// decode.
func FuzzLoadResult(f *testing.F) {
	_, resultBytes, _, _ := seedEntries(f)
	addSeedVariants(f, resultBytes)
	addSeedVariants(f, seedExactResult(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range []SimKey{testSimKey(1), exactSimKey()} {
			d := fuzzCache(t, data, (*diskCache).segmentPath)
			res, exact, ok := d.loadResult(key)
			if !ok {
				continue
			}
			// An accepted entry must be the key's newest valid frame,
			// really carry the canonical key, and its exact counts iff it
			// returned a tracker.
			payload := newestFrame(data, key.String())
			if payload == nil {
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
		d := fuzzCache(t, data, (*diskCache).segmentPath)
		d.loadAnalysis(testAnaKey(1, false))
	})
}

func FuzzLoadSched(f *testing.F) {
	_, _, _, schedBytes := seedEntries(f)
	addSeedVariants(f, schedBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzCache(t, data, (*diskCache).segmentPath)
		d.loadSched("sched-key")
	})
}

// FuzzSegmentScan scans arbitrary bytes as a summary segment. The scan
// must never panic; the frames it reports must validate and, with the
// damaged runs, tile exactly the bytes it consumed; and a genuine entry
// appended after the bytes must still load, with every indexed span
// holding a valid frame of its key.
func FuzzSegmentScan(f *testing.F) {
	_, resultBytes, anaBytes, schedBytes := seedEntries(f)
	segment := append(append(append([]byte{}, resultBytes...), anaBytes...), schedBytes...)
	addSeedVariants(f, segment)
	torn := append(append([]byte{}, resultBytes[:len(resultBytes)/2]...), schedBytes...)
	f.Add(torn)
	f.Add([]byte("CSF"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		consumed := durable.ScanFrames(data, maxJSONPayload, func(off int, payload []byte) {
			n := durable.FrameHeaderLen + len(payload)
			if off != pos {
				t.Fatalf("frame at %d, want %d", off, pos)
			}
			if _, err := durable.DecodeFrame(data[off:off+n], maxJSONPayload); err != nil {
				t.Fatalf("scan reported an invalid frame at %d: %v", off, err)
			}
			pos = off + n
		}, func(off, end int) {
			if off != pos || end <= off {
				t.Fatalf("damage [%d, %d) after %d", off, end, pos)
			}
			pos = end
		})
		if consumed != pos || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes, tiled %d", consumed, len(data), pos)
		}

		d := fuzzCache(t, data, (*diskCache).segmentPath)
		key := testSimKey(7)
		d.storeResult(key, machine.Result{ConfigName: "1x8w", Insts: 777}, nil)
		if res, _, ok := d.loadResult(key); !ok || res.Insts != 777 {
			t.Fatalf("genuine entry appended after the bytes: ok=%v insts=%d", ok, res.Insts)
		}
		seg, err := os.ReadFile(d.segmentPath())
		if err != nil {
			t.Fatal(err)
		}
		for canon, sp := range d.index {
			payload, err := durable.DecodeFrame(seg[sp.off:sp.off+int64(sp.n)], maxJSONPayload)
			if err != nil {
				t.Fatalf("index span of %q holds no valid frame: %v", canon, err)
			}
			if key, ok := envelopeKey(payload); !ok || key != canon {
				t.Fatalf("index span of %q holds key %q", canon, key)
			}
		}
	})
}

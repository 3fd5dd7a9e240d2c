package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/xrand"
)

// buildStore writes insts into an in-memory CTR2 store and returns the
// bytes alongside the reference Builder trace.
func buildStore(t testing.TB, insts []isa.Inst, opts WriterOptions) ([]byte, *Trace) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range insts {
		w.Append(in)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), Rebuild(insts)
}

func tracesEqual(t *testing.T, got, want *Trace, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Insts {
		if got.Insts[i] != want.Insts[i] {
			t.Fatalf("%s: inst %d = %v, want %v", label, i, got.Insts[i], want.Insts[i])
		}
		if got.Deps[i] != want.Deps[i] {
			t.Fatalf("%s: dep %d = %v, want %v", label, i, got.Deps[i], want.Deps[i])
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	insts := randomInsts(xrand.New(11), 3000)
	for _, tc := range []struct {
		name string
		opts WriterOptions
	}{
		{"default", WriterOptions{}},
		{"small-chunks", WriterOptions{ChunkLen: 64}},
		{"compressed", WriterOptions{ChunkLen: 256, Compress: true}},
		{"chunk-larger-than-trace", WriterOptions{ChunkLen: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, want := buildStore(t, insts, tc.opts)
			st, err := OpenBytes(data, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Len() != int64(len(insts)) {
				t.Fatalf("Len = %d, want %d", st.Len(), len(insts))
			}
			if st.Recovered() {
				t.Fatal("cleanly sealed store reported as recovered")
			}
			got, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			tracesEqual(t, got, want, tc.name)
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreEmptyTrace(t *testing.T) {
	data, _ := buildStore(t, nil, WriterOptions{ChunkLen: 8})
	st, err := OpenBytes(data, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || st.Chunks() != 0 {
		t.Fatalf("empty store: Len=%d Chunks=%d", st.Len(), st.Chunks())
	}
	tr, err := st.Load()
	if err != nil || tr.Len() != 0 {
		t.Fatalf("Load of empty store: %v, len %d", err, tr.Len())
	}
}

func TestStoreCrossChunkDeps(t *testing.T) {
	// ChunkLen 4 forces the register edge (inst 0 → inst 9) and the
	// store→load edge (inst 7 → inst 9) to span chunk boundaries; stored
	// dependence columns must still carry the exact global indices the
	// Builder computes.
	var insts []isa.Inst
	insts = append(insts, mkInst(isa.IntALU, 1)) // 0: writes r1
	for i := 0; i < 6; i++ {                     // 1..6: filler, distinct dsts
		insts = append(insts, mkInst(isa.IntALU, isa.Reg(10+i)))
	}
	st7 := mkInst(isa.Store, isa.NoReg, 1)
	st7.Addr = 0x100
	insts = append(insts, st7)                    // 7: store r1 → [0x100]
	insts = append(insts, mkInst(isa.IntALU, 20)) // 8
	ld := mkInst(isa.Load, 2, 1)
	ld.Addr = 0x100
	insts = append(insts, ld) // 9: consumes r1 (inst 0), forwards from store 7

	data, want := buildStore(t, insts, WriterOptions{ChunkLen: 4})
	st, err := OpenBytes(data, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks() != 3 {
		t.Fatalf("Chunks = %d, want 3", st.Chunks())
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, got, want, "cross-chunk")
	if got.Deps[9].Src[0] != 0 || got.Deps[9].Mem != 7 {
		t.Fatalf("load dep = %+v, want Src[0]=0 Mem=7", got.Deps[9])
	}
	// The raw chunk columns themselves must carry the cross-chunk global
	// indices (chunk 2 base is 8; its second instruction is global 9).
	ch, err := st.Chunk(2)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Base != 8 || ch.N != 2 {
		t.Fatalf("chunk 2 base/N = %d/%d, want 8/2", ch.Base, ch.N)
	}
	if ch.DepSrc0[1] != 0 || ch.Mem[1] != 7 {
		t.Fatalf("chunk 2 stored deps = src0 %d mem %d, want 0 and 7", ch.DepSrc0[1], ch.Mem[1])
	}
}

func TestStoreScanOrderAndBases(t *testing.T) {
	insts := randomInsts(xrand.New(3), 1000)
	data, want := buildStore(t, insts, WriterOptions{ChunkLen: 128})
	st, err := OpenBytes(data, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var next int64
	err = st.Scan(func(ch *Chunk) error {
		if ch.Base != next {
			return fmt.Errorf("chunk base %d, want %d", ch.Base, next)
		}
		for i := 0; i < ch.N; i++ {
			if ch.Inst(i) != want.Insts[ch.Base+int64(i)] {
				return fmt.Errorf("inst %d mismatch", ch.Base+int64(i))
			}
		}
		next = ch.Base + int64(ch.N)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != int64(len(insts)) {
		t.Fatalf("scan covered %d insts, want %d", next, len(insts))
	}
}

func TestStoreSummarizeMatchesTrace(t *testing.T) {
	insts := randomInsts(xrand.New(9), 2500)
	data, want := buildStore(t, insts, WriterOptions{ChunkLen: 333, Compress: true})
	st, err := OpenBytes(data, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Summarize() {
		t.Fatalf("streaming Summarize = %+v, want %+v", got, want.Summarize())
	}
}

func TestStoreWindowTraceMatchesRebuild(t *testing.T) {
	insts := randomInsts(xrand.New(21), 2000)
	data, _ := buildStore(t, insts, WriterOptions{ChunkLen: 256})
	st, err := OpenBytes(data, OpenOptions{WindowChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int64{{0, 2000}, {0, 100}, {100, 900}, {255, 769}, {1999, 2000}, {500, 500}} {
		got, err := st.WindowTrace(w[0], w[1])
		if err != nil {
			t.Fatalf("window %v: %v", w, err)
		}
		want := Rebuild(insts[w[0]:w[1]])
		tracesEqual(t, got, want, fmt.Sprintf("window %v", w))
	}
	if _, err := st.WindowTrace(-1, 5); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := st.WindowTrace(0, 2001); err == nil {
		t.Error("hi past end accepted")
	}
	if _, err := st.WindowTrace(7, 3); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestStoreWindowEviction(t *testing.T) {
	insts := randomInsts(xrand.New(5), 1024)
	data, want := buildStore(t, insts, WriterOptions{ChunkLen: 128})
	st, err := OpenBytes(data, OpenOptions{WindowChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks() != 8 || st.WindowChunks() != 2 {
		t.Fatalf("geometry: %d chunks, window %d", st.Chunks(), st.WindowChunks())
	}
	// Touch every chunk twice in a pattern that forces evictions; the
	// resident set must never exceed the window and every access must
	// still return the right contents.
	order := []int{0, 1, 2, 3, 7, 0, 6, 5, 4, 3, 2, 1, 0, 7}
	for _, i := range order {
		ch, err := st.Chunk(i)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if ch.Base != int64(i)*128 {
			t.Fatalf("chunk %d base = %d", i, ch.Base)
		}
		if ch.Inst(0) != want.Insts[ch.Base] {
			t.Fatalf("chunk %d first inst mismatch after eviction churn", i)
		}
		st.mu.Lock()
		resident := len(st.cache)
		st.mu.Unlock()
		if resident > 2 {
			t.Fatalf("resident chunks = %d, window bound 2", resident)
		}
	}
	if wb := st.WindowBytes(); wb != 2*128*chunkBytesPerInst {
		t.Fatalf("WindowBytes = %d", wb)
	}
}

func TestStoreTornTailRecovery(t *testing.T) {
	insts := randomInsts(xrand.New(40), 640)
	data, want := buildStore(t, insts, WriterOptions{ChunkLen: 128})

	// Truncate at every granularity: mid-trailer, mid-footer, mid-chunk,
	// mid-frame-header. Strict opens must fail; RecoverTail must yield a
	// valid prefix of the original stream (or fail cleanly while the
	// header itself is torn).
	headerEnd := ctr2FrameHdrLen + 13 // header frame of a meta-less store
	for cut := len(data) - 1; cut >= 0; cut -= 7 {
		trunc := data[:cut]
		if _, err := OpenBytes(trunc, OpenOptions{}); err == nil {
			t.Fatalf("strict open accepted truncation at %d", cut)
		}
		st, err := OpenBytes(trunc, OpenOptions{RecoverTail: true})
		if err != nil {
			if cut >= headerEnd {
				t.Fatalf("recovery failed at cut %d with intact header: %v", cut, err)
			}
			continue
		}
		if !st.Recovered() {
			t.Fatalf("cut %d: recovered store not flagged", cut)
		}
		if st.Len()%128 != 0 || st.Len() > 640 {
			t.Fatalf("cut %d: recovered %d insts, want a whole-chunk prefix", cut, st.Len())
		}
		got, err := st.Load()
		if err != nil {
			t.Fatalf("cut %d: loading recovered prefix: %v", cut, err)
		}
		for i := range got.Insts {
			if got.Insts[i] != want.Insts[i] || got.Deps[i] != want.Deps[i] {
				t.Fatalf("cut %d: recovered inst %d diverges from original", cut, i)
			}
		}
	}

	// An untruncated file opened with RecoverTail must not degrade.
	st, err := OpenBytes(data, OpenOptions{RecoverTail: true})
	if err != nil || st.Recovered() || st.Len() != 640 {
		t.Fatalf("intact store with RecoverTail: err=%v recovered=%v len=%d", err, st.Recovered(), st.Len())
	}
}

func TestStoreDetectsCorruption(t *testing.T) {
	insts := randomInsts(xrand.New(8), 512)
	data, _ := buildStore(t, insts, WriterOptions{ChunkLen: 128})

	// Flip one byte inside the second chunk's columns: opening still
	// succeeds (the footer is intact) but reading that chunk must fail
	// the CRC, and recovery must stop before it.
	st, err := OpenBytes(data, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[st.offsets[1]+ctr2FrameHdrLen+20] ^= 0xFF
	st2, err := OpenBytes(corrupt, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Chunk(1); !errors.Is(err, ErrTornStore) {
		t.Fatalf("corrupt chunk read: %v, want ErrTornStore", err)
	}
	if _, err := st2.Chunk(0); err != nil {
		t.Fatalf("sibling chunk must stay readable: %v", err)
	}
	if _, err := st2.Load(); err == nil {
		t.Fatal("Load materialized a corrupt store")
	}
	// With an intact footer, RecoverTail changes nothing: the index is
	// trusted and the corrupt chunk still fails at read time.
	rec, err := OpenBytes(corrupt, OpenOptions{RecoverTail: true})
	if err != nil || rec.Recovered() || rec.Len() != 512 {
		t.Fatalf("recover with intact footer: err=%v recovered=%v len=%d", err, rec.Recovered(), rec.Len())
	}
	// Tear the tail as well: prefix recovery must stop before the corrupt
	// chunk.
	tornCorrupt := corrupt[:len(corrupt)-ctr2TrailerLen]
	rec2, err := OpenBytes(tornCorrupt, OpenOptions{RecoverTail: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.Recovered() || rec2.Len() != 128 {
		t.Fatalf("prefix recovery over corrupt chunk 1 kept %d insts, want 128", rec2.Len())
	}

	// Corrupt trailer magic: strict open fails as torn.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := OpenBytes(bad, OpenOptions{}); !errors.Is(err, ErrTornStore) {
		t.Fatalf("corrupt trailer: %v, want ErrTornStore", err)
	}

	// Corrupt header frame: unreadable even with recovery.
	hdrBad := append([]byte(nil), data...)
	hdrBad[ctr2FrameHdrLen] ^= 0xFF
	if _, err := OpenBytes(hdrBad, OpenOptions{RecoverTail: true}); err == nil {
		t.Fatal("corrupt header accepted")
	}

	// Not a CTR2 file at all.
	if _, err := OpenBytes([]byte("CTR1 is a different animal"), OpenOptions{}); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("foreign bytes: %v, want ErrBadFormat", err)
	}
}

func TestStoreMetaRoundTrip(t *testing.T) {
	meta := []byte("v3|trace|bench=vpr|insts=100|seed=1")
	data, _ := buildStore(t, randomInsts(xrand.New(2), 10), WriterOptions{ChunkLen: 4, Meta: meta})
	st, err := OpenBytes(data, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Meta(), meta) {
		t.Fatalf("Meta = %q, want %q", st.Meta(), meta)
	}
}

func TestWriterOptionValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, WriterOptions{ChunkLen: -1}); err == nil {
		t.Error("negative ChunkLen accepted")
	}
	if _, err := NewWriter(&buf, WriterOptions{ChunkLen: maxChunkLen + 1}); err == nil {
		t.Error("oversized ChunkLen accepted")
	}
	if _, err := NewWriter(&buf, WriterOptions{Meta: make([]byte, maxMetaLen+1)}); err == nil {
		t.Error("oversized meta accepted")
	}
}

// failAfter errors every write past the first n bytes.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w, err := NewWriter(&failAfter{n: 1 << 12}, WriterOptions{ChunkLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range randomInsts(xrand.New(1), 500) {
		w.Append(in) // must not panic once the sink dies
	}
	if w.Err() == nil {
		t.Fatal("writer swallowed the sink error")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close reported success after a write error")
	}
}

func TestOpenFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.ctr2")
	insts := randomInsts(xrand.New(6), 300)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{ChunkLen: 64, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range insts {
		w.Append(in)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, got, Rebuild(insts), "file store")
	if _, err := Open(filepath.Join(dir, "missing.ctr2"), OpenOptions{}); err == nil {
		t.Error("Open of a missing file succeeded")
	}
}

func TestWriteStoreHelper(t *testing.T) {
	want := Rebuild(randomInsts(xrand.New(14), 700))
	var buf bytes.Buffer
	if err := WriteStore(&buf, want, WriterOptions{ChunkLen: 100}); err != nil {
		t.Fatal(err)
	}
	st, err := OpenBytes(buf.Bytes(), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, got, want, "WriteStore")
}

// TestCodecCountBoundary pins the materialization ceiling: a store whose
// footer declares 2^31 instructions opens (the geometry is consistent)
// but Load rejects it before allocating, because instruction indices are
// int32.
func TestCodecCountBoundary(t *testing.T) {
	var buf bytes.Buffer
	hdr := []byte{ctr2KindHeader}
	hdr = binary.LittleEndian.AppendUint16(hdr, ctr2Version)
	hdr = binary.LittleEndian.AppendUint16(hdr, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, maxChunkLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	ctr2EncodeFrame(&buf, hdr)
	const total = 1 << 31
	chunks := total / maxChunkLen
	footer := []byte{ctr2KindFooter}
	footer = binary.LittleEndian.AppendUint64(footer, total)
	footer = binary.LittleEndian.AppendUint32(footer, maxChunkLen)
	footer = binary.LittleEndian.AppendUint32(footer, uint32(chunks))
	footer = append(footer, make([]byte, 8*chunks)...)
	footerOff := buf.Len()
	ctr2EncodeFrame(&buf, footer)
	var tr [ctr2TrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(footerOff))
	binary.LittleEndian.PutUint32(tr[8:12], crc32c(tr[0:8]))
	binary.LittleEndian.PutUint32(tr[12:16], ctr2TrailMagic)
	buf.Write(tr[:])

	st, err := OpenBytes(buf.Bytes(), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != total {
		t.Fatalf("store declares %d instructions, want %d", st.Len(), total)
	}
	if _, err := st.Load(); err == nil || !strings.Contains(err.Error(), "too large to materialize") {
		t.Fatalf("Load of 2^31 instructions: %v, want the int32 ceiling rejection", err)
	}
}

// FuzzReadChunked hammers the CTR2 store reader with arbitrary bytes:
// opening, scanning, windowed reads and materialization must never panic
// or index out of range, in both strict and tail-recovery modes, and
// whatever is accepted must round-trip its instruction stream.
func FuzzReadChunked(f *testing.F) {
	seed := func(opts WriterOptions, n int) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, opts)
		if err != nil {
			f.Fatal(err)
		}
		for _, in := range randomInsts(xrand.New(77), n) {
			w.Append(in)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := seed(WriterOptions{ChunkLen: 32, Meta: []byte("k")}, 100)
	f.Add(valid)
	f.Add(seed(WriterOptions{ChunkLen: 16, Compress: true}, 100))
	f.Add(seed(WriterOptions{ChunkLen: 8}, 0))
	f.Add(valid[:len(valid)-ctr2TrailerLen-3])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte("CTR1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, recov := range []bool{false, true} {
			st, err := OpenBytes(data, OpenOptions{WindowChunks: 2, RecoverTail: recov})
			if err != nil {
				continue
			}
			// Cap the work per input: a crafted footer may declare huge
			// geometry; reads will fail on it, but don't let Load try to
			// materialize the claim.
			if st.Len() > 1<<20 || st.ChunkLen() > 1<<16 {
				continue
			}
			tr, err := st.Load()
			if err != nil {
				continue // corrupt chunk behind a valid footer
			}
			if int64(tr.Len()) != st.Len() {
				t.Fatalf("Load returned %d insts, store says %d", tr.Len(), st.Len())
			}
			// Stored dependences are only index-validated, not semantically
			// trusted; pin exactly the bounds decodeChunk guarantees.
			for i := range tr.Deps {
				d := tr.Deps[i]
				for _, p := range [3]int32{d.Src[0], d.Src[1], d.Mem} {
					if p != None && (p < 0 || int(p) >= i) {
						t.Fatalf("inst %d escaped with out-of-order dep %d", i, p)
					}
				}
				if tr.Insts[i].Op >= isa.NumOps {
					t.Fatalf("inst %d escaped with op %d", i, tr.Insts[i].Op)
				}
				tr.ProducerSpan(i) // must not panic
			}
			s, err := st.Summarize()
			if err != nil {
				t.Fatalf("Load succeeded but Summarize failed: %v", err)
			}
			if s.Total != tr.Len() {
				t.Fatalf("Summarize counted %d, Load %d", s.Total, tr.Len())
			}
			if st.Len() > 0 {
				mid := st.Len() / 2
				if _, err := st.WindowTrace(0, mid); err != nil {
					t.Fatalf("WindowTrace over loadable store: %v", err)
				}
			}
			// Re-encoding what we accepted must reproduce the instruction
			// stream (dependences are recomputed by the writer).
			var out bytes.Buffer
			if err := WriteStore(&out, tr, WriterOptions{ChunkLen: st.ChunkLen()}); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			st2, err := OpenBytes(out.Bytes(), OpenOptions{})
			if err != nil {
				t.Fatalf("re-open: %v", err)
			}
			if st2.Len() != st.Len() {
				t.Fatalf("round trip length %d, want %d", st2.Len(), st.Len())
			}
		}
	})
}

var _ io.Writer = (*failAfter)(nil)

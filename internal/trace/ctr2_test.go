package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
		{"chunk-larger-than-trace", WriterOptions{ChunkLen: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, want := buildStore(t, insts, tc.opts)
			st, err := OpenBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			if st.Len() != int64(len(insts)) {
				t.Fatalf("Len = %d, want %d", st.Len(), len(insts))
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
	st, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || len(st.offsets) != 0 {
		t.Fatalf("empty store: Len=%d chunks=%d", st.Len(), len(st.offsets))
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
	st, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.offsets) != 3 {
		t.Fatalf("chunks = %d, want 3", len(st.offsets))
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
	chunks := 0
	err = st.Scan(func(ch *Chunk) error {
		chunks++
		if chunks != 3 {
			return nil
		}
		if ch.Base != 8 || ch.N != 2 {
			return fmt.Errorf("chunk 2 base/N = %d/%d, want 8/2", ch.Base, ch.N)
		}
		if ch.DepSrc0[1] != 0 || ch.Mem[1] != 7 {
			return fmt.Errorf("chunk 2 stored deps = src0 %d mem %d, want 0 and 7", ch.DepSrc0[1], ch.Mem[1])
		}
		return nil
	})
	if err != nil || chunks != 3 {
		t.Fatalf("scan of %d chunks: %v", chunks, err)
	}
}

func TestStoreScanOrderAndBases(t *testing.T) {
	insts := randomInsts(xrand.New(3), 1000)
	data, want := buildStore(t, insts, WriterOptions{ChunkLen: 128})
	st, err := OpenBytes(data)
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
	data, want := buildStore(t, insts, WriterOptions{ChunkLen: 333})
	st, err := OpenBytes(data)
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

// sameTrace fails unless got holds want's instructions, dependences and
// producer index; a reused buffer's empty slices equal Rebuild's nil ones.
func sameTrace(t *testing.T, got, want *Trace, label string) {
	t.Helper()
	tracesEqual(t, got, want, label)
	gotOff, gotIdx := got.ProducerIndex()
	wantOff, wantIdx := want.ProducerIndex()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotIdx, wantIdx) {
		t.Fatalf("%s: producer index differs from Rebuild's", label)
	}
}

// TestStoreWindowTraceMatchesRebuild checks every window both into a
// fresh trace and into one trace reused across all of them, in an order
// where windows grow, shrink, are empty, span three chunks, sit inside
// one chunk, straddle chunk boundaries and revisit earlier chunks: each
// result holds exactly Rebuild of the slice, producer index included.
func TestStoreWindowTraceMatchesRebuild(t *testing.T) {
	insts := randomInsts(xrand.New(21), 2000)
	data, _ := buildStore(t, insts, WriterOptions{ChunkLen: 256})
	st, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	reused := new(Trace)
	for _, w := range [][2]int64{
		{0, 10}, {10, 700}, {700, 760}, {760, 760}, {760, 1030}, {1024, 1280},
		{0, 2000}, {1999, 2000}, {300, 301}, {255, 769}, {500, 500}, {2000, 2000},
	} {
		want := Rebuild(insts[w[0]:w[1]])
		for _, dst := range []*Trace{nil, reused} {
			label := fmt.Sprintf("window %v (reused %t)", w, dst != nil)
			got, err := st.WindowTrace(w[0], w[1], dst)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if dst != nil && got != dst {
				t.Fatalf("%s: a new trace, not the reused one", label)
			}
			sameTrace(t, got, want, label)
		}
	}
	if _, err := st.WindowTrace(-1, 5, nil); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := st.WindowTrace(0, 2001, nil); err == nil {
		t.Error("hi past end accepted")
	}
	if _, err := st.WindowTrace(7, 3, nil); err == nil {
		t.Error("inverted window accepted")
	}
}

// TestStoreTornTailRecovery pins that a torn store is never recovered:
// truncated at every granularity (mid-trailer, mid-footer, mid-chunk,
// mid-frame-header), it fails to open with ErrTornStore, so the engine
// quarantines and regenerates it instead of reading a prefix.
func TestStoreTornTailRecovery(t *testing.T) {
	data, _ := buildStore(t, randomInsts(xrand.New(40), 640), WriterOptions{ChunkLen: 128})
	for cut := len(data) - 1; cut >= 0; cut -= 7 {
		if _, err := OpenBytes(data[:cut]); !errors.Is(err, ErrTornStore) {
			t.Fatalf("truncation at %d: %v, want ErrTornStore", cut, err)
		}
	}
}

// TestStoreRejectsHeaderFlags pins that the header's flags field is
// reserved: a store that sets any flag (bit 0 once meant DEFLATE-
// compressed columns) fails to open with ErrBadFormat.
func TestStoreRejectsHeaderFlags(t *testing.T) {
	data, _ := buildStore(t, randomInsts(xrand.New(41), 300), WriterOptions{ChunkLen: 64})
	for _, flags := range []uint16{1, 0x8000} {
		bad := withHeaderFlags(data, flags)
		if _, err := OpenBytes(bad); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("flags %#x: %v, want ErrBadFormat", flags, err)
		}
	}
}

// TestFuzzCorpusRetiredStores pins what the committed FuzzReadChunked
// corpus holds: a sealed store opens, a torn one fails with ErrTornStore,
// and one written with the retired DEFLATE flag fails with ErrBadFormat.
func TestFuzzCorpusRetiredStores(t *testing.T) {
	for name, want := range map[string]error{
		"seed-sealed-store":     nil,
		"seed-torn-store":       ErrTornStore,
		"seed-compressed-store": ErrBadFormat,
	} {
		raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzReadChunked", name))
		if err != nil {
			t.Fatal(err)
		}
		// Line 2 of a "go test fuzz v1" file holds the []byte argument.
		lit, ok := strings.CutPrefix(strings.Split(string(raw), "\n")[1], "[]byte(")
		if !ok {
			t.Fatalf("%s: unexpected corpus line", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := OpenBytes([]byte(data)); !errors.Is(err, want) {
			t.Errorf("%s: open: %v, want %v", name, err, want)
		}
	}
}

// withHeaderFlags returns a copy of a meta-less store with its header
// flags set to flags and the header frame's CRC recomputed, so only the
// flags make it invalid.
func withHeaderFlags(data []byte, flags uint16) []byte {
	out := append([]byte(nil), data...)
	hdr := out[ctr2FrameHdrLen : ctr2FrameHdrLen+13]
	binary.LittleEndian.PutUint16(hdr[3:5], flags)
	binary.LittleEndian.PutUint32(out[8:12], crc32c(hdr))
	return out
}

func TestStoreDetectsCorruption(t *testing.T) {
	insts := randomInsts(xrand.New(8), 512)
	data, _ := buildStore(t, insts, WriterOptions{ChunkLen: 128})

	// Flip one byte inside the second chunk's columns: opening still
	// succeeds (the footer is intact) but reading that chunk must fail
	// the CRC.
	st, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[st.offsets[1]+ctr2FrameHdrLen+20] ^= 0xFF
	st2, err := OpenBytes(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.WindowTrace(128, 256, nil); !errors.Is(err, ErrTornStore) {
		t.Fatalf("corrupt chunk read: %v, want ErrTornStore", err)
	}
	if _, err := st2.WindowTrace(0, 128, nil); err != nil {
		t.Fatalf("sibling chunk must stay readable: %v", err)
	}
	if _, err := st2.Load(); err == nil {
		t.Fatal("Load materialized a corrupt store")
	}
	// Corrupt trailer magic: strict open fails as torn.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := OpenBytes(bad); !errors.Is(err, ErrTornStore) {
		t.Fatalf("corrupt trailer: %v, want ErrTornStore", err)
	}

	// Corrupt header frame.
	hdrBad := append([]byte(nil), data...)
	hdrBad[ctr2FrameHdrLen] ^= 0xFF
	if _, err := OpenBytes(hdrBad); err == nil {
		t.Fatal("corrupt header accepted")
	}

	// Not a CTR2 file at all.
	if _, err := OpenBytes([]byte("CTR1 is a different animal")); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("foreign bytes: %v, want ErrBadFormat", err)
	}
}

func TestStoreMetaRoundTrip(t *testing.T) {
	meta := []byte("v3|trace|bench=vpr|insts=100|seed=1")
	data, _ := buildStore(t, randomInsts(xrand.New(2), 10), WriterOptions{ChunkLen: 4, Meta: meta})
	st, err := OpenBytes(data)
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
	w, err := NewWriter(&buf, WriterOptions{ChunkLen: 64})
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
	st, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, got, want, "WriteStore")
}

// TestWriteStoreDigests pins WriteStore's bytes: a 3,000-instruction
// trace (the server's job size, shorter than one chunk) and a trace
// longer than one default chunk. The digests were taken from the writer
// that allocated a full chunk of columns up front; growing them on demand
// must not change a byte.
func TestWriteStoreDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		opts WriterOptions
		want string
	}{
		{"3000", 3000, WriterOptions{Meta: []byte("v1|trace|bench=gzip|insts=3000|seed=1")},
			"0b975e296395d721e1b06bf06f36d83c245398cf60c0237da9fec2af0db0a3eb"},
		{"over-one-chunk", DefaultChunkLen + 4464, WriterOptions{},
			"e8b53b1f4b5c2b3d52ea759b6930c5a46559598675cb97e75b77ad0ffcd6dc13"},
	} {
		var buf bytes.Buffer
		if err := WriteStore(&buf, Rebuild(randomInsts(xrand.New(19), tc.n)), tc.opts); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestWriteStoreAllocBound keeps a short store from paying for a full
// default chunk of columns (33 B x 65,536 = 2.1 MiB).
func TestWriteStoreAllocBound(t *testing.T) {
	tr := Rebuild(randomInsts(xrand.New(19), 3000))
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := WriteStore(&buf, tr, WriterOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 512<<10 {
		t.Fatalf("WriteStore of 3,000 instructions allocates %d B per store, want < 512 KiB", got)
	}
}

// TestCodecCountBoundary pins the materialization ceiling: a store whose
// footer declares 2^31 instructions opens (the geometry is consistent)
// but Load and a whole-store window reject it before allocating, because
// instruction indices are int32.
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

	st, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != total {
		t.Fatalf("store declares %d instructions, want %d", st.Len(), total)
	}
	if _, err := st.Load(); err == nil || !strings.Contains(err.Error(), "too large to materialize") {
		t.Fatalf("Load of 2^31 instructions: %v, want the int32 ceiling rejection", err)
	}
	if _, err := st.WindowTrace(0, total, nil); err == nil || !strings.Contains(err.Error(), "too large to materialize") {
		t.Fatalf("window of 2^31 instructions: %v, want the int32 ceiling rejection", err)
	}
}

// FuzzReadChunked hammers the CTR2 store reader with arbitrary bytes:
// opening, scanning, windowed reads and materialization must never panic
// or index out of range, and whatever is accepted must round-trip its
// instruction stream.
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
	f.Add(withHeaderFlags(seed(WriterOptions{ChunkLen: 16}, 100), 1))
	f.Add(seed(WriterOptions{ChunkLen: 8}, 0))
	f.Add(valid[:len(valid)-ctr2TrailerLen-3])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte("CTR1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := OpenBytes(data)
		if err != nil {
			return
		}
		// Cap the work per input: a crafted footer may declare huge
		// geometry; reads will fail on it, but don't let Load try to
		// materialize the claim.
		if st.Len() > 1<<20 || st.chunkLen > 1<<16 {
			return
		}
		tr, err := st.Load()
		if err != nil {
			return // corrupt chunk behind a valid footer
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
		// Windows cut the stored dependences: whatever the store claims,
		// every kept producer is inside the window and strictly older.
		var win *Trace
		mid := st.Len() / 2
		for _, w := range [][2]int64{{0, mid}, {mid, st.Len()}, {mid / 2, mid + mid/2}} {
			win, err = st.WindowTrace(w[0], w[1], win)
			if err != nil {
				t.Fatalf("WindowTrace %v over loadable store: %v", w, err)
			}
			if int64(win.Len()) != w[1]-w[0] {
				t.Fatalf("window %v holds %d insts", w, win.Len())
			}
			for k, d := range win.Deps {
				for _, p := range [3]int32{d.Src[0], d.Src[1], d.Mem} {
					if p != None && (p < 0 || int(p) >= k) {
						t.Fatalf("window %v inst %d kept dep %d", w, k, p)
					}
				}
				win.ProducerSpan(k) // must not panic
			}
		}
		// Re-encoding what we accepted must reproduce the instruction
		// stream (dependences are recomputed by the writer).
		var out bytes.Buffer
		if err := WriteStore(&out, tr, WriterOptions{ChunkLen: st.chunkLen}); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		st2, err := OpenBytes(out.Bytes())
		if err != nil {
			t.Fatalf("re-open: %v", err)
		}
		if st2.Len() != st.Len() {
			t.Fatalf("round trip length %d, want %d", st2.Len(), st.Len())
		}
	})
}

var _ io.Writer = (*failAfter)(nil)

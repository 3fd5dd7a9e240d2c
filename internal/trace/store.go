package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"clustersim/internal/isa"
)

// OpenOptions configures Open; no option is defined. A torn store is
// always an error (ErrTornStore).
type OpenOptions struct{}

// Store is a read view of one CTR2 chunked trace: sequential scans,
// whole-trace loads, and window materialization for the simulators.
// Windows decode into one store-owned scratch chunk, so a store keeps at
// most one decoded chunk resident however large the trace on disk is. A
// Store is safe for concurrent use.
type Store struct {
	r        io.ReaderAt
	closer   io.Closer
	meta     []byte
	chunkLen int
	total    int64
	offsets  []uint64

	mu      sync.Mutex
	scratch Chunk // WindowTrace's decode target
	held    int   // index of the chunk scratch holds, or -1
}

// Open opens the CTR2 store at path. The returned store holds the file
// open until Close.
func Open(path string, opts OpenOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	st, err := newStore(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	st.closer = f
	return st, nil
}

// OpenBytes opens a CTR2 store held fully in memory, such as a fuzzing
// input or a store a test wrote to a buffer.
func OpenBytes(data []byte) (*Store, error) {
	return newStore(bytes.NewReader(data), int64(len(data)))
}

// newStore builds a store over any ReaderAt of the given size.
func newStore(r io.ReaderAt, size int64) (*Store, error) {
	st := &Store{r: r, held: -1}

	hdr, err := ctr2ReadFrame(r, 0, 14+maxMetaLen, nil)
	if err != nil {
		var m [4]byte
		if _, rerr := r.ReadAt(m[:], 0); rerr == nil && string(m[:]) == "CTR1" {
			return nil, fmt.Errorf("%w: a CTR1 whole-trace file, a format no longer read; regenerate it with tracegen -o", ErrBadFormat)
		}
		return nil, err
	}
	if len(hdr) < 13 || hdr[0] != ctr2KindHeader {
		return nil, fmt.Errorf("%w: missing header record", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint16(hdr[1:3]); v != ctr2Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	if f := binary.LittleEndian.Uint16(hdr[3:5]); f != 0 {
		return nil, fmt.Errorf("%w: unsupported header flags %#x", ErrBadFormat, f)
	}
	st.chunkLen = int(binary.LittleEndian.Uint32(hdr[5:9]))
	if st.chunkLen < 1 || st.chunkLen > maxChunkLen {
		return nil, fmt.Errorf("%w: chunk length %d out of range", ErrBadFormat, st.chunkLen)
	}
	metaLen := int(binary.LittleEndian.Uint32(hdr[9:13]))
	if metaLen > maxMetaLen || len(hdr) != 13+metaLen {
		return nil, fmt.Errorf("%w: header meta length %d", ErrBadFormat, metaLen)
	}
	st.meta = append([]byte(nil), hdr[13:]...)
	if err := st.loadFooter(size); err != nil {
		return nil, err
	}
	return st, nil
}

// loadFooter validates the trailer and footer and installs the chunk
// index.
func (st *Store) loadFooter(size int64) error {
	if size < ctr2TrailerLen {
		return fmt.Errorf("%w: no room for trailer", ErrTornStore)
	}
	var tr [ctr2TrailerLen]byte
	if _, err := st.r.ReadAt(tr[:], size-ctr2TrailerLen); err != nil {
		return fmt.Errorf("%w: trailer: %v", ErrTornStore, err)
	}
	if binary.LittleEndian.Uint32(tr[12:16]) != ctr2TrailMagic ||
		binary.LittleEndian.Uint32(tr[8:12]) != crc32c(tr[0:8]) {
		return fmt.Errorf("%w: trailer missing or corrupt", ErrTornStore)
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	if footerOff < 0 || footerOff >= size-ctr2TrailerLen {
		return fmt.Errorf("%w: trailer points outside the file", ErrTornStore)
	}
	footer, err := ctr2ReadFrame(st.r, footerOff, 17+8*(maxChunkLen+1), nil)
	if err != nil {
		return err
	}
	if len(footer) < 17 || footer[0] != ctr2KindFooter {
		return fmt.Errorf("%w: footer record malformed", ErrTornStore)
	}
	total := int64(binary.LittleEndian.Uint64(footer[1:9]))
	chunkLen := int(binary.LittleEndian.Uint32(footer[9:13]))
	chunkCount := int(binary.LittleEndian.Uint32(footer[13:17]))
	if chunkLen != st.chunkLen {
		return fmt.Errorf("%w: footer chunk length %d vs header %d", ErrBadFormat, chunkLen, st.chunkLen)
	}
	if total < 0 || chunkCount < 0 || len(footer) != 17+8*chunkCount {
		return fmt.Errorf("%w: footer geometry", ErrBadFormat)
	}
	want := int((total + int64(st.chunkLen) - 1) / int64(st.chunkLen))
	if chunkCount != want {
		return fmt.Errorf("%w: footer declares %d chunks for %d instructions", ErrBadFormat, chunkCount, total)
	}
	st.total = total
	st.offsets = make([]uint64, chunkCount)
	for i := range st.offsets {
		st.offsets[i] = binary.LittleEndian.Uint64(footer[17+8*i:])
	}
	return nil
}

// Close releases the underlying file (if the store owns one).
func (st *Store) Close() error {
	if st.closer != nil {
		return st.closer.Close()
	}
	return nil
}

// Meta returns the header's application blob.
func (st *Store) Meta() []byte { return st.meta }

// Len returns the total instruction count.
func (st *Store) Len() int64 { return st.total }

// chunkBounds returns chunk i's global instruction range.
func (st *Store) chunkBounds(i int) (base int64, count int) {
	base = int64(i) * int64(st.chunkLen)
	count = st.chunkLen
	if rest := st.total - base; int64(count) > rest {
		count = int(rest)
	}
	return base, count
}

// readChunk decodes chunk i into ch, reusing ch's storage.
func (st *Store) readChunk(i int, ch *Chunk) error {
	if i < 0 || i >= len(st.offsets) {
		return fmt.Errorf("trace: chunk %d out of range [0,%d)", i, len(st.offsets))
	}
	payload, err := ctr2ReadFrame(st.r, int64(st.offsets[i]), maxChunkPayload(st.chunkLen), ch.frame)
	if err != nil {
		return err
	}
	ch.frame = payload
	base, count := st.chunkBounds(i)
	if err := decodeChunk(payload, i, base, st.chunkLen, ch); err != nil {
		return err
	}
	if ch.N != count {
		return fmt.Errorf("%w: chunk %d holds %d instructions, footer says %d", ErrBadFormat, i, ch.N, count)
	}
	return nil
}

// Scan streams every chunk through fn in index order, decoding into one
// private buffer (the window scratch is untouched, so a concurrent
// windowed consumer is unaffected). fn must not retain the chunk.
func (st *Store) Scan(fn func(ch *Chunk) error) error {
	var ch Chunk
	for i := range st.offsets {
		if err := st.readChunk(i, &ch); err != nil {
			return err
		}
		if err := fn(&ch); err != nil {
			return err
		}
	}
	return nil
}

// Summarize computes op-mix statistics by streaming the store with
// bounded memory; the result is identical to materializing the trace
// and calling Trace.Summarize.
func (st *Store) Summarize() (Stats, error) {
	var s Stats
	err := st.Scan(func(ch *Chunk) error {
		s.Total += ch.N
		for i := 0; i < ch.N; i++ {
			op := isa.Op(ch.Op[i])
			s.Count[op]++
			if op.IsBranch() {
				s.Branches++
				if ch.Flags[i]&1 != 0 {
					s.Taken++
				}
			}
		}
		return nil
	})
	return s, err
}

// Load materializes the whole store as an in-memory Trace, using the
// stored dependence annotations (which the Writer computed exactly as
// Builder would) and prebuilding the producer index. The result is
// deep-equal to building the same instruction stream with a Builder.
func (st *Store) Load() (*Trace, error) {
	if st.total > maxInstIndex {
		return nil, fmt.Errorf("trace: store holds %d instructions; too large to materialize", st.total)
	}
	tr := &Trace{
		Insts: make([]isa.Inst, 0, int(st.total)),
		Deps:  make([]DepInfo, 0, int(st.total)),
	}
	err := st.Scan(func(ch *Chunk) error {
		for i := 0; i < ch.N; i++ {
			tr.Insts = append(tr.Insts, ch.Inst(i))
			tr.Deps = append(tr.Deps, ch.Dep(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr.EnsureProducerIndex()
	return tr, nil
}

// WindowTrace materializes instructions [lo, hi) as a self-contained
// Trace in dst's storage (nil means a new trace) and returns it; the
// caller must be done with dst's previous contents. The stored
// dependences are cut at the window: a producer before lo becomes None
// and every other index is rebased to the window. For a store a Writer
// wrote, whose dependences are the Builder's, that is exactly Rebuild of
// the window's slice (cold register file and store set) — the
// segmented-simulation contract: each window is an independent sample,
// as the paper's own 100M-instruction sampling is. Chunks decode into
// the store's scratch, so windows sharing a chunk decode it once.
func (st *Store) WindowTrace(lo, hi int64, dst *Trace) (*Trace, error) {
	if lo < 0 || hi > st.total || lo > hi {
		return nil, fmt.Errorf("trace: window [%d,%d) out of range [0,%d)", lo, hi, st.total)
	}
	if hi-lo > maxInstIndex {
		return nil, fmt.Errorf("trace: window of %d instructions; too large to materialize", hi-lo)
	}
	if dst == nil {
		dst = new(Trace)
	}
	n := int(hi - lo)
	dst.Insts, dst.Deps = resize(dst.Insts, n), resize(dst.Deps, n)
	st.mu.Lock()
	defer st.mu.Unlock()
	ch := &st.scratch
	for ci := int(lo / int64(st.chunkLen)); int64(ci)*int64(st.chunkLen) < hi; ci++ {
		if st.held != ci {
			st.held = -1
			if err := st.readChunk(ci, ch); err != nil {
				return nil, err
			}
			st.held = ci
		}
		i0, i1 := max(lo-ch.Base, 0), min(hi-ch.Base, int64(ch.N))
		for i := i0; i < i1; i++ {
			k := ch.Base + i - lo
			dst.Insts[k] = ch.Inst(int(i))
			dst.Deps[k] = DepInfo{
				Src: [2]int32{inWindow(ch.DepSrc0[i], lo), inWindow(ch.DepSrc1[i], lo)},
				Mem: inWindow(ch.Mem[i], lo),
			}
		}
	}
	dst.indexProducers()
	return dst, nil
}

// inWindow rebases a stored producer index to a window starting at
// global index lo; None and producers before the window become None.
// It compares in int64: a store may hold more than 2^31 instructions.
func inWindow(d int32, lo int64) int32 {
	if int64(d) < lo {
		return None
	}
	return int32(int64(d) - lo)
}

// maxInstIndex is the materialization ceiling: DepInfo and the producer
// index address instructions with int32.
const maxInstIndex = int64(math.MaxInt32)

// WriteStore streams an in-memory trace into CTR2 form.
func WriteStore(w io.Writer, t *Trace, opts WriterOptions) error {
	cw, err := NewWriter(w, opts)
	if err != nil {
		return err
	}
	for i := range t.Insts {
		cw.Append(t.Insts[i])
	}
	return cw.Close()
}

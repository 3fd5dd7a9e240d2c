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

// DefaultWindowChunks is the default bound on decoded chunks a Store
// keeps resident: with DefaultChunkLen chunks this is ≈ 8.4 MiB of
// columns, regardless of how large the trace on disk is.
const DefaultWindowChunks = 4

// OpenOptions configures Open. The zero value is strict (a torn store
// is an error) with the default window.
type OpenOptions struct {
	// WindowChunks bounds how many decoded chunks the store keeps
	// resident; 0 means DefaultWindowChunks, negative means 1.
	WindowChunks int
	// RecoverTail accepts a store whose footer or trailer is missing or
	// corrupt (an interrupted writer, a torn disk): the store exposes
	// the longest valid prefix of chunks and reports Recovered() true.
	RecoverTail bool
}

// Store is a read view of one CTR2 chunked trace: random access to any
// chunk through a bounded window of decoded chunks (an LRU over chunk
// indexes), sequential scans, and window materialization for the
// simulators. A Store is safe for concurrent use.
type Store struct {
	r        io.ReaderAt
	closer   io.Closer
	meta     []byte
	flags    uint16
	chunkLen int
	total    int64
	offsets  []uint64
	recov    bool

	mu     sync.Mutex
	window int
	cache  map[int]*storeChunk
	clock  int64
}

// storeChunk is one resident decoded chunk with its LRU stamp.
type storeChunk struct {
	ch   Chunk
	used int64
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
	st, err := NewStore(f, fi.Size(), opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	st.closer = f
	return st, nil
}

// OpenBytes opens a CTR2 store held fully in memory (a cache entry that
// was read and CRC-validated elsewhere, a fuzzing input).
func OpenBytes(data []byte, opts OpenOptions) (*Store, error) {
	return NewStore(bytes.NewReader(data), int64(len(data)), opts)
}

// NewStore builds a store over any ReaderAt of the given size.
func NewStore(r io.ReaderAt, size int64, opts OpenOptions) (*Store, error) {
	window := opts.WindowChunks
	if window == 0 {
		window = DefaultWindowChunks
	}
	if window < 1 {
		window = 1
	}
	st := &Store{r: r, window: window, cache: make(map[int]*storeChunk, window)}

	hdr, err := ctr2ReadFrame(r, 0, 14+maxMetaLen)
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
	st.flags = binary.LittleEndian.Uint16(hdr[3:5])
	st.chunkLen = int(binary.LittleEndian.Uint32(hdr[5:9]))
	if st.chunkLen < 1 || st.chunkLen > maxChunkLen {
		return nil, fmt.Errorf("%w: chunk length %d out of range", ErrBadFormat, st.chunkLen)
	}
	metaLen := int(binary.LittleEndian.Uint32(hdr[9:13]))
	if metaLen > maxMetaLen || len(hdr) != 13+metaLen {
		return nil, fmt.Errorf("%w: header meta length %d", ErrBadFormat, metaLen)
	}
	st.meta = append([]byte(nil), hdr[13:]...)
	headerEnd := int64(ctr2FrameHdrLen + len(hdr))

	if err := st.loadFooter(size); err != nil {
		if !opts.RecoverTail {
			return nil, err
		}
		if err := st.recoverPrefix(headerEnd, size); err != nil {
			return nil, err
		}
		st.recov = true
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
	footer, err := ctr2ReadFrame(st.r, footerOff, 17+8*(maxChunkLen+1))
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

// recoverPrefix rebuilds the chunk index by scanning frames forward from
// the first chunk, accepting the longest fully valid prefix. A file with
// a readable header and zero intact chunks recovers to an empty store.
func (st *Store) recoverPrefix(start, size int64) error {
	st.offsets = st.offsets[:0]
	st.total = 0
	var ch Chunk
	off := start
	for off < size {
		payload, err := ctr2ReadFrame(st.r, off, maxChunkPayload(st.chunkLen))
		if err != nil {
			break
		}
		if len(payload) == 0 || payload[0] != ctr2KindChunk {
			break // footer (or junk): the chunk run is over
		}
		if err := decodeChunk(payload, len(st.offsets), st.total, st.chunkLen, st.compressed(), &ch); err != nil {
			break
		}
		// Only the last chunk of a store may be short; a short chunk mid-
		// stream means the writer's tail, so stop after it.
		st.offsets = append(st.offsets, uint64(off))
		st.total += int64(ch.N)
		off += int64(ctr2FrameHdrLen + len(payload))
		if ch.N < st.chunkLen {
			break
		}
	}
	return nil
}

func (st *Store) compressed() bool { return st.flags&FlagCompressed != 0 }

// Close releases the underlying file (if the store owns one).
func (st *Store) Close() error {
	if st.closer != nil {
		return st.closer.Close()
	}
	return nil
}

// Meta returns the header's application blob.
func (st *Store) Meta() []byte { return st.meta }

// Recovered reports whether the store was opened by torn-tail recovery
// (its contents are a valid prefix of the original stream).
func (st *Store) Recovered() bool { return st.recov }

// Len returns the total instruction count.
func (st *Store) Len() int64 { return st.total }

// Chunks returns the number of chunks.
func (st *Store) Chunks() int { return len(st.offsets) }

// ChunkLen returns the instructions-per-chunk geometry.
func (st *Store) ChunkLen() int { return st.chunkLen }

// WindowChunks returns the resident-window bound.
func (st *Store) WindowChunks() int { return st.window }

// WindowBytes estimates the resident window's peak column footprint:
// the memory a caching consumer holds regardless of trace length.
func (st *Store) WindowBytes() int64 {
	return int64(st.window) * int64(st.chunkLen) * chunkBytesPerInst
}

// chunkBounds returns chunk i's global instruction range.
func (st *Store) chunkBounds(i int) (base int64, count int) {
	base = int64(i) * int64(st.chunkLen)
	count = st.chunkLen
	if rest := st.total - base; int64(count) > rest {
		count = int(rest)
	}
	return base, count
}

// readChunkInto decodes chunk i into ch, bypassing the window cache.
func (st *Store) readChunkInto(i int, ch *Chunk) error {
	if i < 0 || i >= len(st.offsets) {
		return fmt.Errorf("trace: chunk %d out of range [0,%d)", i, len(st.offsets))
	}
	payload, err := ctr2ReadFrame(st.r, int64(st.offsets[i]), maxChunkPayload(st.chunkLen))
	if err != nil {
		return err
	}
	base, count := st.chunkBounds(i)
	if err := decodeChunk(payload, i, base, st.chunkLen, st.compressed(), ch); err != nil {
		return err
	}
	if ch.N != count {
		return fmt.Errorf("%w: chunk %d holds %d instructions, footer says %d", ErrBadFormat, i, ch.N, count)
	}
	return nil
}

// Chunk returns chunk i through the window cache, decoding it on a miss
// and evicting the least-recently-used resident chunk beyond the window
// bound. The returned chunk is shared and read-only; it stays valid
// until evicted, so callers must not retain it across further Chunk
// calls beyond their window discipline.
func (st *Store) Chunk(i int) (*Chunk, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.clock++
	if sc, ok := st.cache[i]; ok {
		sc.used = st.clock
		return &sc.ch, nil
	}
	sc := &storeChunk{used: st.clock}
	if err := st.readChunkInto(i, &sc.ch); err != nil {
		return nil, err
	}
	for len(st.cache) >= st.window {
		evict, oldest := -1, st.clock+1
		for idx, c := range st.cache {
			if c.used < oldest {
				evict, oldest = idx, c.used
			}
		}
		delete(st.cache, evict)
	}
	st.cache[i] = sc
	return &sc.ch, nil
}

// Scan streams every chunk through fn in index order, decoding into a
// private buffer (the window cache is untouched, so a concurrent
// windowed consumer is unaffected). fn must not retain the chunk.
func (st *Store) Scan(fn func(ch *Chunk) error) error {
	var ch Chunk
	for i := range st.offsets {
		if err := st.readChunkInto(i, &ch); err != nil {
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
// Trace: dependences are recomputed within the window from a cold
// register file and store set (exactly Rebuild of the window's
// instruction slice), which is the segmented-simulation contract — each
// window is an independent sample, as the paper's own 100M-instruction
// sampling is. Chunks are fetched through the window cache.
func (st *Store) WindowTrace(lo, hi int64) (*Trace, error) {
	if lo < 0 || hi > st.total || lo > hi {
		return nil, fmt.Errorf("trace: window [%d,%d) out of range [0,%d)", lo, hi, st.total)
	}
	b := NewBuilder(int(hi - lo))
	for ci := int(lo / int64(st.chunkLen)); int64(ci)*int64(st.chunkLen) < hi; ci++ {
		ch, err := st.Chunk(ci)
		if err != nil {
			return nil, err
		}
		i0, i1 := int64(0), int64(ch.N)
		if ch.Base < lo {
			i0 = lo - ch.Base
		}
		if ch.Base+i1 > hi {
			i1 = hi - ch.Base
		}
		for i := i0; i < i1; i++ {
			b.Append(ch.Inst(int(i)))
		}
	}
	return b.Trace(), nil
}

// maxInstIndex is the materialization ceiling: DepInfo and the producer
// index address instructions with int32.
const maxInstIndex = int64(math.MaxInt32)

// WriteStore streams an in-memory trace into CTR2 form — the engine's
// disk tier uses it to persist cached traces chunked.
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

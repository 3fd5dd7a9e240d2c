package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"clustersim/internal/isa"
)

// CTR2 is the chunked, structure-of-arrays trace store: the format
// behind paper-scale (100M+ instruction) workloads. It is the one on-disk
// trace format. A store is a sequence of independently validated
// fixed-size chunks, so a writer streams a trace to disk with bounded
// memory and a reader pages any window of it back in without touching
// the rest.
//
// File layout (every frame uses the engine's CRC discipline — magic,
// length, CRC32-C (Castagnoli) of the payload, payload):
//
//	header frame:
//	    kind     uint8 (0 = header)
//	    version  uint16 (currently 1)
//	    flags    uint16 (reserved; must be 0)
//	    chunkLen uint32 (instructions per chunk; last chunk may be short)
//	    metaLen  uint32, meta bytes (application blob, e.g. a cache key)
//	chunk frames, in index order:
//	    kind    uint8 (1 = chunk)
//	    index   uint32
//	    count   uint32 (instructions in this chunk)
//	    rawLen  uint32 (column bytes; must be count × 33)
//	    columns — structure-of-arrays:
//	        pc      count × uint64
//	        addr    count × uint64
//	        src0    count × uint8
//	        src1    count × uint8
//	        dst     count × uint8
//	        op      count × uint8 (must be < NumOps)
//	        flags   count × uint8 (bit 0: taken)
//	        depSrc0 count × int32 (producer index or None)
//	        depSrc1 count × int32
//	        depMem  count × int32 (forwarding store index or None)
//	footer frame:
//	    kind       uint8 (2 = footer)
//	    total      uint64 (instructions in the file)
//	    chunkLen   uint32 (must match the header)
//	    chunkCount uint32
//	    offsets    chunkCount × uint64 (file offset of each chunk frame)
//	trailer (fixed 16 bytes, not framed):
//	    footerOff uint64
//	    crc       uint32 (CRC32-C of footerOff bytes)
//	    magic     uint32 "CTRE"
//
// Dependence annotations are stored: the writer computes
// them incrementally with the same last-writer/last-store state the
// Builder uses (dependence edges spanning chunk boundaries included), and
// storing them is what makes an arbitrary window self-describing — a
// reader gets correct global-index dependences without replaying the
// prefix of the stream. Decoded chunks are bounds-validated (op class,
// dependence indices strictly older than their consumer), so a corrupt
// or adversarial file can never induce out-of-range indexing downstream.
// A file whose tail was torn off by a crash (missing trailer, torn
// footer, or a half-written chunk) fails to open with ErrTornStore.
const (
	ctr2FrameMagic  = 0x32525443 // "CTR2" little-endian
	ctr2TrailMagic  = 0x45525443 // "CTRE" little-endian
	ctr2FrameHdrLen = 12
	ctr2TrailerLen  = 16
	ctr2Version     = 1
)

// ctr2CRCTable is the Castagnoli table shared with the engine's cache
// frame discipline.
var ctr2CRCTable = crc32.MakeTable(crc32.Castagnoli)

func crc32c(p []byte) uint32 { return crc32.Checksum(p, ctr2CRCTable) }

// Record kinds inside CTR2 frames.
const (
	ctr2KindHeader = 0
	ctr2KindChunk  = 1
	ctr2KindFooter = 2
)

// DefaultChunkLen is the default instructions-per-chunk (64Ki ≈ 2.1 MiB
// of columns): large enough to amortize framing, small enough that a
// handful of chunks is a fine-grained memory window.
const DefaultChunkLen = 1 << 16

// chunkBytesPerInst is the raw column footprint of one instruction:
// 8 (pc) + 8 (addr) + 5 (regs/op/flags) + 12 (deps).
const chunkBytesPerInst = 8 + 8 + 5 + 12

// maxChunkLen bounds the per-chunk instruction count a header may
// declare, so a corrupt header cannot demand an absurd allocation.
const maxChunkLen = 1 << 24

// maxMetaLen bounds the header's application blob.
const maxMetaLen = 1 << 16

// Store-validation failures. Callers that cache CTR2 files treat any of
// these as corruption (quarantine and regenerate).
var (
	ErrBadFormat = errors.New("trace: not a CTR2 store")
	// ErrTornStore marks a store whose tail is missing or invalid.
	ErrTornStore = errors.New("trace: store tail torn or corrupt")
)

// ctr2EncodeFrame appends one framed record to dst.
func ctr2EncodeFrame(dst *bytes.Buffer, payload []byte) {
	var hdr [ctr2FrameHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], ctr2FrameMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32c(payload))
	dst.Write(hdr[:])
	dst.Write(payload)
}

// ctr2ReadFrame reads and validates one frame at offset off of r into
// dst's storage (growing it if the payload does not fit) and returns the
// payload. maxLen bounds the declared payload length.
func ctr2ReadFrame(r io.ReaderAt, off int64, maxLen int, dst []byte) ([]byte, error) {
	var hdr [ctr2FrameHdrLen]byte
	if _, err := r.ReadAt(hdr[:], off); err != nil {
		return nil, fmt.Errorf("%w: frame header at %d: %v", ErrTornStore, off, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != ctr2FrameMagic {
		return nil, fmt.Errorf("%w: bad frame magic at %d", ErrBadFormat, off)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if n < 0 || n > maxLen {
		return nil, fmt.Errorf("%w: frame length %d at %d out of bounds", ErrBadFormat, n, off)
	}
	payload := slices.Grow(dst[:0], n)[:n]
	if _, err := r.ReadAt(payload, off+ctr2FrameHdrLen); err != nil {
		return nil, fmt.Errorf("%w: frame payload at %d: %v", ErrTornStore, off, err)
	}
	if crc32c(payload) != binary.LittleEndian.Uint32(hdr[8:12]) {
		return nil, fmt.Errorf("%w: frame CRC mismatch at %d", ErrTornStore, off)
	}
	return payload, nil
}

// maxChunkPayload is the frame-length bound for a chunk of chunkLen
// instructions: the chunk record header plus its columns.
func maxChunkPayload(chunkLen int) int {
	return 13 + chunkLen*chunkBytesPerInst
}

// WriterOptions configures a CTR2 Writer. The zero value is ready to
// use: DefaultChunkLen chunks, no meta blob.
type WriterOptions struct {
	// ChunkLen is the instructions-per-chunk; 0 means DefaultChunkLen.
	ChunkLen int
	// Meta is an application blob stored in the header, such as a key
	// naming what the trace was generated from.
	Meta []byte
}

// Writer streams a dynamic instruction trace into the CTR2 chunked
// format with bounded memory: one chunk of columns plus the dependence
// state, regardless of trace length. It implements Appender; I/O and
// capacity failures are sticky and surface from Err and Close (Append
// stays error-free for the emit hot path).
type Writer struct {
	w       io.Writer
	opts    WriterOptions
	ds      depState
	err     error
	closed  bool
	off     int64 // bytes written so far
	offsets []uint64
	total   int64
	buf     bytes.Buffer // scratch for the current frame

	// Current chunk columns (structure of arrays). They start empty and
	// grow with Append (see grow), so a short trace never pays for a full
	// chunk; flushChunk keeps their capacity for the next chunk.
	pc, addr                []uint64
	src0, src1, dst, op, fl []uint8
	dep0, dep1, depm        []int32
}

// NewWriter builds a streaming CTR2 writer over w and writes the header
// frame. The caller must Close the writer to seal the store (footer and
// trailer); a store missing them fails to open with ErrTornStore.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.ChunkLen == 0 {
		opts.ChunkLen = DefaultChunkLen
	}
	if opts.ChunkLen < 1 || opts.ChunkLen > maxChunkLen {
		return nil, fmt.Errorf("trace: chunk length %d out of range [1, %d]", opts.ChunkLen, maxChunkLen)
	}
	if len(opts.Meta) > maxMetaLen {
		return nil, fmt.Errorf("trace: meta blob %d bytes exceeds %d", len(opts.Meta), maxMetaLen)
	}
	cw := &Writer{w: w, opts: opts}
	cw.ds.reset()
	hdr := make([]byte, 0, 14+len(opts.Meta))
	hdr = append(hdr, ctr2KindHeader)
	hdr = binary.LittleEndian.AppendUint16(hdr, ctr2Version)
	hdr = binary.LittleEndian.AppendUint16(hdr, 0) // flags
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(opts.ChunkLen))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(opts.Meta)))
	hdr = append(hdr, opts.Meta...)
	cw.buf.Reset()
	ctr2EncodeFrame(&cw.buf, hdr)
	cw.flushBuf()
	return cw, cw.err
}

// flushBuf writes the scratch frame buffer to the underlying writer,
// recording the first error.
func (cw *Writer) flushBuf() {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(cw.buf.Bytes())
	cw.off += int64(n)
	if err != nil {
		cw.err = err
	}
}

// Len returns the number of instructions appended so far.
func (cw *Writer) Len() int { return int(cw.total) }

// Err returns the writer's sticky error, if any.
func (cw *Writer) Err() error { return cw.err }

// Append adds one dynamic instruction to the store, computing its
// dependence annotation exactly as Builder would. Failures are sticky:
// once the writer has errored (or overflowed int32 instruction indices)
// further appends are dropped and the error surfaces from Err/Close.
func (cw *Writer) Append(in isa.Inst) {
	if cw.err != nil {
		return
	}
	if cw.total >= math.MaxInt32 {
		cw.err = fmt.Errorf("trace: store exceeds %d instructions (int32 dependence indices)", math.MaxInt32)
		return
	}
	d := cw.ds.annotate(&in, int32(cw.total))
	if len(cw.pc) == cap(cw.pc) {
		cw.grow()
	}
	cw.pc = append(cw.pc, in.PC)
	cw.addr = append(cw.addr, in.Addr)
	cw.src0 = append(cw.src0, uint8(in.Src[0]))
	cw.src1 = append(cw.src1, uint8(in.Src[1]))
	cw.dst = append(cw.dst, uint8(in.Dst))
	cw.op = append(cw.op, uint8(in.Op))
	var fl uint8
	if in.Taken {
		fl |= 1
	}
	cw.fl = append(cw.fl, fl)
	cw.dep0 = append(cw.dep0, d.Src[0])
	cw.dep1 = append(cw.dep1, d.Src[1])
	cw.depm = append(cw.depm, d.Mem)
	cw.total++
	if len(cw.pc) == cw.opts.ChunkLen {
		cw.flushChunk()
	}
}

// minColumnCap is the first capacity grow gives the columns: 4,096
// instructions are 132 KiB of columns.
const minColumnCap = 4096

// grow doubles every column's capacity together, from minColumnCap up to
// one chunk. Growing them as one keeps a short trace's columns to one
// allocation each, and a long stream reaches chunk size once.
func (cw *Writer) grow() {
	n := min(max(2*cap(cw.pc), minColumnCap), cw.opts.ChunkLen)
	cw.pc, cw.addr = growColumn(cw.pc, n), growColumn(cw.addr, n)
	cw.src0, cw.src1, cw.dst = growColumn(cw.src0, n), growColumn(cw.src1, n), growColumn(cw.dst, n)
	cw.op, cw.fl = growColumn(cw.op, n), growColumn(cw.fl, n)
	cw.dep0, cw.dep1, cw.depm = growColumn(cw.dep0, n), growColumn(cw.dep1, n), growColumn(cw.depm, n)
}

// growColumn returns a copy of col with capacity n.
func growColumn[T any](col []T, n int) []T {
	out := make([]T, len(col), n)
	copy(out, col)
	return out
}

// encodeColumns serializes the current chunk's columns into dst.
func (cw *Writer) encodeColumns(dst *bytes.Buffer) {
	n := len(cw.pc)
	dst.Grow(n * chunkBytesPerInst)
	var u8 [8]byte
	for _, v := range cw.pc {
		binary.LittleEndian.PutUint64(u8[:], v)
		dst.Write(u8[:])
	}
	for _, v := range cw.addr {
		binary.LittleEndian.PutUint64(u8[:], v)
		dst.Write(u8[:])
	}
	dst.Write(cw.src0)
	dst.Write(cw.src1)
	dst.Write(cw.dst)
	dst.Write(cw.op)
	dst.Write(cw.fl)
	for _, col := range [][]int32{cw.dep0, cw.dep1, cw.depm} {
		for _, v := range col {
			binary.LittleEndian.PutUint32(u8[:4], uint32(v))
			dst.Write(u8[:4])
		}
	}
}

// flushChunk seals the current chunk as one frame, built in place in the
// frame buffer: the frame header is reserved, the chunk record written
// after it, and the header filled in once the payload is complete.
func (cw *Writer) flushChunk() {
	if cw.err != nil || len(cw.pc) == 0 {
		return
	}
	n := len(cw.pc)
	cw.buf.Reset()
	var rec [ctr2FrameHdrLen + 13]byte
	rec[ctr2FrameHdrLen] = ctr2KindChunk
	binary.LittleEndian.PutUint32(rec[ctr2FrameHdrLen+1:], uint32(len(cw.offsets)))
	binary.LittleEndian.PutUint32(rec[ctr2FrameHdrLen+5:], uint32(n))
	binary.LittleEndian.PutUint32(rec[ctr2FrameHdrLen+9:], uint32(n*chunkBytesPerInst))
	cw.buf.Write(rec[:])
	cw.encodeColumns(&cw.buf)
	frame := cw.buf.Bytes()
	payload := frame[ctr2FrameHdrLen:]
	binary.LittleEndian.PutUint32(frame[0:4], ctr2FrameMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32c(payload))

	cw.offsets = append(cw.offsets, uint64(cw.off))
	cw.flushBuf()

	cw.pc, cw.addr = cw.pc[:0], cw.addr[:0]
	cw.src0, cw.src1, cw.dst = cw.src0[:0], cw.src1[:0], cw.dst[:0]
	cw.op, cw.fl = cw.op[:0], cw.fl[:0]
	cw.dep0, cw.dep1, cw.depm = cw.dep0[:0], cw.dep1[:0], cw.depm[:0]
}

// Close flushes the final partial chunk and seals the store with the
// footer frame and trailer. It returns the writer's sticky error; a
// store whose Close failed (or never ran) has a torn tail and fails to
// open with ErrTornStore.
func (cw *Writer) Close() error {
	if cw.closed {
		return cw.err
	}
	cw.closed = true
	cw.flushChunk()
	if cw.err != nil {
		return cw.err
	}

	footer := make([]byte, 0, 17+8*len(cw.offsets))
	footer = append(footer, ctr2KindFooter)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(cw.total))
	footer = binary.LittleEndian.AppendUint32(footer, uint32(cw.opts.ChunkLen))
	footer = binary.LittleEndian.AppendUint32(footer, uint32(len(cw.offsets)))
	for _, off := range cw.offsets {
		footer = binary.LittleEndian.AppendUint64(footer, off)
	}
	footerOff := cw.off
	cw.buf.Reset()
	ctr2EncodeFrame(&cw.buf, footer)

	var tr [ctr2TrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(footerOff))
	binary.LittleEndian.PutUint32(tr[8:12], crc32c(tr[0:8]))
	binary.LittleEndian.PutUint32(tr[12:16], ctr2TrailMagic)
	cw.buf.Write(tr[:])
	cw.flushBuf()
	return cw.err
}

// Chunk is one decoded CTR2 chunk: a structure-of-arrays window of
// Base..Base+N instructions with their (global-index) dependences.
type Chunk struct {
	Base int64 // global index of the chunk's first instruction
	N    int

	PC, Addr              []uint64
	Src0, Src1, Dst       []uint8
	Op, Flags             []uint8
	DepSrc0, DepSrc1, Mem []int32

	frame []byte // the frame payload buffer, reused by the next decode
}

// Inst reassembles the i-th instruction of the chunk.
func (c *Chunk) Inst(i int) isa.Inst {
	return isa.Inst{
		PC:    c.PC[i],
		Addr:  c.Addr[i],
		Src:   [2]isa.Reg{isa.Reg(c.Src0[i]), isa.Reg(c.Src1[i])},
		Dst:   isa.Reg(c.Dst[i]),
		Op:    isa.Op(c.Op[i]),
		Taken: c.Flags[i]&1 != 0,
	}
}

// Dep reassembles the i-th instruction's dependence record.
func (c *Chunk) Dep(i int) DepInfo {
	return DepInfo{Src: [2]int32{c.DepSrc0[i], c.DepSrc1[i]}, Mem: c.Mem[i]}
}

// decodeChunk parses one chunk frame payload into ch, validating that
// the decoded contents can be consumed safely: operation classes in
// range, dependence indices strictly older than their (global) consumer
// index. wantIndex and base pin the chunk's position in the stream.
func decodeChunk(payload []byte, wantIndex int, base int64, chunkLen int, ch *Chunk) error {
	if len(payload) < 13 || payload[0] != ctr2KindChunk {
		return fmt.Errorf("%w: not a chunk record", ErrBadFormat)
	}
	index := int(binary.LittleEndian.Uint32(payload[1:5]))
	count := int(binary.LittleEndian.Uint32(payload[5:9]))
	rawLen := int(binary.LittleEndian.Uint32(payload[9:13]))
	if index != wantIndex {
		return fmt.Errorf("%w: chunk index %d where %d expected", ErrBadFormat, index, wantIndex)
	}
	if count < 1 || count > chunkLen {
		return fmt.Errorf("%w: chunk count %d out of range (chunkLen %d)", ErrBadFormat, count, chunkLen)
	}
	if rawLen != count*chunkBytesPerInst {
		return fmt.Errorf("%w: chunk raw length %d for %d instructions", ErrBadFormat, rawLen, count)
	}
	cols := payload[13:]
	if len(cols) != rawLen {
		return fmt.Errorf("%w: chunk carries %d column bytes, want %d", ErrBadFormat, len(cols), rawLen)
	}

	ch.Base, ch.N = base, count
	ch.PC = resize(ch.PC, count)
	ch.Addr = resize(ch.Addr, count)
	for i := 0; i < count; i++ {
		ch.PC[i] = binary.LittleEndian.Uint64(cols[i*8:])
	}
	cols = cols[count*8:]
	for i := 0; i < count; i++ {
		ch.Addr[i] = binary.LittleEndian.Uint64(cols[i*8:])
	}
	cols = cols[count*8:]
	ch.Src0 = append(ch.Src0[:0], cols[:count]...)
	cols = cols[count:]
	ch.Src1 = append(ch.Src1[:0], cols[:count]...)
	cols = cols[count:]
	ch.Dst = append(ch.Dst[:0], cols[:count]...)
	cols = cols[count:]
	ch.Op = append(ch.Op[:0], cols[:count]...)
	cols = cols[count:]
	ch.Flags = append(ch.Flags[:0], cols[:count]...)
	cols = cols[count:]
	for i, op := range ch.Op {
		if op >= uint8(isa.NumOps) {
			return fmt.Errorf("%w: instruction %d has invalid op %d", ErrBadFormat, base+int64(i), op)
		}
	}
	ch.DepSrc0 = resize(ch.DepSrc0, count)
	ch.DepSrc1 = resize(ch.DepSrc1, count)
	ch.Mem = resize(ch.Mem, count)
	for k, col := range [3][]int32{ch.DepSrc0, ch.DepSrc1, ch.Mem} {
		if err := decodeDeps(col, cols[4*count*k:], base); err != nil {
			return err
		}
	}
	return nil
}

// decodeDeps decodes one little-endian dependence column into col,
// checking that every entry is None or strictly older than its
// consumer, global index base+i.
func decodeDeps(col []int32, src []byte, base int64) error {
	for i := range col {
		d := int32(binary.LittleEndian.Uint32(src[4*i:]))
		if d != None && (d < 0 || int64(d) >= base+int64(i)) {
			return fmt.Errorf("%w: instruction %d has out-of-order dependence %d", ErrBadFormat, base+int64(i), d)
		}
		col[i] = d
	}
	return nil
}

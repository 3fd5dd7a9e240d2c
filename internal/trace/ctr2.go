package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"clustersim/internal/isa"
)

// CTR2 is the chunked, structure-of-arrays, optionally compressed trace
// store: the format behind paper-scale (100M+ instruction) workloads.
// It is the one on-disk trace format. A store is a sequence of
// independently validated fixed-size chunks, so a writer streams a trace
// to disk with bounded memory and a reader pages any window of it back
// in without touching the rest.
//
// File layout (every frame uses the engine's CRC discipline — magic,
// length, CRC32-C (Castagnoli) of the payload, payload):
//
//	header frame:
//	    kind     uint8 (0 = header)
//	    version  uint16 (currently 1)
//	    flags    uint16 (bit 0: chunk columns are DEFLATE-compressed)
//	    chunkLen uint32 (instructions per chunk; last chunk may be short)
//	    metaLen  uint32, meta bytes (application blob, e.g. a cache key)
//	chunk frames, in index order:
//	    kind    uint8 (1 = chunk)
//	    index   uint32
//	    count   uint32 (instructions in this chunk)
//	    rawLen  uint32 (uncompressed column bytes)
//	    columns — structure-of-arrays, possibly compressed:
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
//
// A file whose tail was torn off by a crash (missing trailer, torn
// footer, or a half-written chunk) is recoverable: OpenOptions.
// RecoverTail scans the chunk sequence from the start and accepts the
// longest valid prefix.
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

// Format flags.
const (
	// FlagCompressed marks chunk columns as DEFLATE-compressed.
	FlagCompressed uint16 = 1 << 0
)

// DefaultChunkLen is the default instructions-per-chunk (64Ki ≈ 2.1 MiB
// of raw columns): large enough to amortize framing and compression,
// small enough that a handful of chunks is a fine-grained memory window.
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
	// ErrTornStore marks a store whose tail is missing or invalid; Open
	// with RecoverTail accepts the valid prefix instead.
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

// ctr2ReadFrame reads and validates one frame at offset off of r.
// maxLen bounds the declared payload length.
func ctr2ReadFrame(r io.ReaderAt, off int64, maxLen int) ([]byte, error) {
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
	payload := make([]byte, n)
	if _, err := r.ReadAt(payload, off+ctr2FrameHdrLen); err != nil {
		return nil, fmt.Errorf("%w: frame payload at %d: %v", ErrTornStore, off, err)
	}
	if crc32c(payload) != binary.LittleEndian.Uint32(hdr[8:12]) {
		return nil, fmt.Errorf("%w: frame CRC mismatch at %d", ErrTornStore, off)
	}
	return payload, nil
}

// maxChunkPayload is the frame-length bound for a chunk of chunkLen
// instructions: the raw columns plus the chunk record header, with slack
// for the (rare) incompressible case where DEFLATE expands its input.
func maxChunkPayload(chunkLen int) int {
	return 13 + chunkLen*chunkBytesPerInst + chunkLen/8 + 256
}

// WriterOptions configures a CTR2 Writer. The zero value is ready to
// use: DefaultChunkLen chunks, no compression, no meta blob.
type WriterOptions struct {
	// ChunkLen is the instructions-per-chunk; 0 means DefaultChunkLen.
	ChunkLen int
	// Compress DEFLATE-compresses each chunk's columns. Synthetic traces
	// compress extremely well (stable PCs, strided addresses) at the
	// cost of encode throughput; leave it off when the store is a
	// scratch spill and on when it is a long-lived artifact.
	Compress bool
	// Meta is an application blob stored in the header (the engine's
	// disk tier records the content-addressed cache key here).
	Meta []byte
}

// Writer streams a dynamic instruction trace into the CTR2 chunked
// format with bounded memory: one chunk of columns plus the dependence
// state, regardless of trace length. It implements Appender; I/O and
// capacity failures are sticky and surface from Err and Close (Append
// stays error-free for the emit hot path).
type Writer struct {
	w        io.Writer
	opts     WriterOptions
	ds       depState
	err      error
	closed   bool
	off      int64 // bytes written so far
	offsets  []uint64
	total    int64
	buf      bytes.Buffer // scratch for the current frame
	comp     *flate.Writer
	compBuf  bytes.Buffer
	chunkCap int

	// Current chunk columns (structure of arrays).
	pc, addr                []uint64
	src0, src1, dst, op, fl []uint8
	dep0, dep1, depm        []int32
}

// NewWriter builds a streaming CTR2 writer over w and writes the header
// frame. The caller must Close the writer to seal the store (footer and
// trailer); a store missing them is readable only via RecoverTail.
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
	cw := &Writer{w: w, opts: opts, chunkCap: opts.ChunkLen}
	cw.ds.reset()
	cw.growColumns()
	var flags uint16
	if opts.Compress {
		flags |= FlagCompressed
		cw.comp, _ = flate.NewWriter(io.Discard, flate.BestSpeed)
	}
	hdr := make([]byte, 0, 14+len(opts.Meta))
	hdr = append(hdr, ctr2KindHeader)
	hdr = binary.LittleEndian.AppendUint16(hdr, ctr2Version)
	hdr = binary.LittleEndian.AppendUint16(hdr, flags)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(opts.ChunkLen))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(opts.Meta)))
	hdr = append(hdr, opts.Meta...)
	cw.buf.Reset()
	ctr2EncodeFrame(&cw.buf, hdr)
	cw.flushBuf()
	return cw, cw.err
}

func (cw *Writer) growColumns() {
	n := cw.chunkCap
	cw.pc = make([]uint64, 0, n)
	cw.addr = make([]uint64, 0, n)
	cw.src0 = make([]uint8, 0, n)
	cw.src1 = make([]uint8, 0, n)
	cw.dst = make([]uint8, 0, n)
	cw.op = make([]uint8, 0, n)
	cw.fl = make([]uint8, 0, n)
	cw.dep0 = make([]int32, 0, n)
	cw.dep1 = make([]int32, 0, n)
	cw.depm = make([]int32, 0, n)
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
	if len(cw.pc) == cw.chunkCap {
		cw.flushChunk()
	}
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

// flushChunk seals the current chunk as one frame.
func (cw *Writer) flushChunk() {
	if cw.err != nil || len(cw.pc) == 0 {
		return
	}
	cw.compBuf.Reset()
	cw.encodeColumns(&cw.compBuf)
	raw := cw.compBuf.Bytes()

	payload := bytes.NewBuffer(make([]byte, 0, 13+len(raw)))
	payload.WriteByte(ctr2KindChunk)
	var u4 [4]byte
	binary.LittleEndian.PutUint32(u4[:], uint32(len(cw.offsets)))
	payload.Write(u4[:])
	binary.LittleEndian.PutUint32(u4[:], uint32(len(cw.pc)))
	payload.Write(u4[:])
	binary.LittleEndian.PutUint32(u4[:], uint32(len(raw)))
	payload.Write(u4[:])
	if cw.comp != nil {
		cw.comp.Reset(payload)
		if _, err := cw.comp.Write(raw); err == nil {
			cw.err = cw.comp.Close()
		} else {
			cw.err = err
		}
		if cw.err != nil {
			return
		}
	} else {
		payload.Write(raw)
	}

	cw.offsets = append(cw.offsets, uint64(cw.off))
	cw.buf.Reset()
	ctr2EncodeFrame(&cw.buf, payload.Bytes())
	cw.flushBuf()

	cw.pc, cw.addr = cw.pc[:0], cw.addr[:0]
	cw.src0, cw.src1, cw.dst = cw.src0[:0], cw.src1[:0], cw.dst[:0]
	cw.op, cw.fl = cw.op[:0], cw.fl[:0]
	cw.dep0, cw.dep1, cw.depm = cw.dep0[:0], cw.dep1[:0], cw.depm[:0]
}

// Close flushes the final partial chunk and seals the store with the
// footer frame and trailer. It returns the writer's sticky error; a
// store whose Close failed (or never ran) has a torn tail and is
// readable only via OpenOptions.RecoverTail.
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
func decodeChunk(payload []byte, wantIndex int, base int64, chunkLen int, compressed bool, ch *Chunk) error {
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
	if compressed {
		fr := flate.NewReader(bytes.NewReader(cols))
		buf := make([]byte, rawLen)
		if _, err := io.ReadFull(fr, buf); err != nil {
			return fmt.Errorf("%w: chunk decompression: %v", ErrTornStore, err)
		}
		// One extra read distinguishes exactly-rawLen streams from longer
		// ones a corrupted file might carry.
		var one [1]byte
		if n, _ := fr.Read(one[:]); n != 0 {
			return fmt.Errorf("%w: chunk decompresses past its raw length", ErrBadFormat)
		}
		cols = buf
	} else if len(cols) != rawLen {
		return fmt.Errorf("%w: chunk carries %d column bytes, want %d", ErrBadFormat, len(cols), rawLen)
	}

	ch.Base, ch.N = base, count
	ch.PC = growU64(ch.PC, count)
	ch.Addr = growU64(ch.Addr, count)
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
	ch.DepSrc0 = growI32(ch.DepSrc0, count)
	ch.DepSrc1 = growI32(ch.DepSrc1, count)
	ch.Mem = growI32(ch.Mem, count)
	for i := 0; i < count; i++ {
		ch.DepSrc0[i] = int32(binary.LittleEndian.Uint32(cols[i*4:]))
	}
	cols = cols[count*4:]
	for i := 0; i < count; i++ {
		ch.DepSrc1[i] = int32(binary.LittleEndian.Uint32(cols[i*4:]))
	}
	cols = cols[count*4:]
	for i := 0; i < count; i++ {
		ch.Mem[i] = int32(binary.LittleEndian.Uint32(cols[i*4:]))
	}

	for i := 0; i < count; i++ {
		if ch.Op[i] >= uint8(isa.NumOps) {
			return fmt.Errorf("%w: instruction %d has invalid op %d", ErrBadFormat, base+int64(i), ch.Op[i])
		}
		gi := base + int64(i)
		for _, d := range [3]int32{ch.DepSrc0[i], ch.DepSrc1[i], ch.Mem[i]} {
			if d != None && (d < 0 || int64(d) >= gi) {
				return fmt.Errorf("%w: instruction %d has out-of-order dependence %d", ErrBadFormat, gi, d)
			}
		}
	}
	return nil
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Package tracetest is test support for the trace package's consumers: a
// byte codec of one fixed-size instruction record layout, for fuzz
// targets that need a decoder mutation can explore. CTR2, the on-disk
// format, guards every chunk with a CRC, so a mutated CTR2 input almost
// always dies at the checksum; a mutated record stream reaches the
// simulators instead. The committed fuzz corpora are written in this
// layout. Import it from tests only.
//
// Layout:
//
//	magic   [4]byte "CTR1"
//	count   uint64 (little endian)
//	records count × 21 bytes:
//	    pc    uint64 (8 bytes)
//	    addr  uint64 (8 bytes)
//	    src0  uint8
//	    src1  uint8
//	    dst   uint8
//	    op    uint8 (must be < NumOps)
//	    flags uint8 (bit 0: taken)
//
// Dependence annotations are derived data and are recomputed on decode.
package tracetest

import (
	"encoding/binary"
	"fmt"
	"math"

	"clustersim/internal/isa"
	"clustersim/internal/trace"
)

const (
	magic      = "CTR1"
	headerSize = 4 + 8
	recordSize = 8 + 8 + 5
)

// Encode returns t's instructions in the record layout.
func Encode(t *trace.Trace) []byte {
	out := make([]byte, headerSize, headerSize+recordSize*len(t.Insts))
	copy(out, magic)
	binary.LittleEndian.PutUint64(out[4:], uint64(len(t.Insts)))
	for i := range t.Insts {
		in := &t.Insts[i]
		out = binary.LittleEndian.AppendUint64(out, in.PC)
		out = binary.LittleEndian.AppendUint64(out, in.Addr)
		var flags byte
		if in.Taken {
			flags = 1
		}
		out = append(out, byte(in.Src[0]), byte(in.Src[1]), byte(in.Dst), byte(in.Op), flags)
	}
	return out
}

// Decode parses the record layout and rebuilds the trace's dependences.
// It rejects a bad magic, a count past the int32 instruction index, a
// truncated body and an invalid op; trailing bytes are ignored.
func Decode(data []byte) (*trace.Trace, error) {
	if len(data) < headerSize || string(data[:4]) != magic {
		return nil, fmt.Errorf("tracetest: missing %s header", magic)
	}
	count := binary.LittleEndian.Uint64(data[4:])
	if count > math.MaxInt32 {
		return nil, fmt.Errorf("tracetest: implausible instruction count %d", count)
	}
	body := data[headerSize:]
	if uint64(len(body))/recordSize < count {
		return nil, fmt.Errorf("tracetest: %d records declared, %d present", count, len(body)/recordSize)
	}
	insts := make([]isa.Inst, count)
	for i := range insts {
		rec := body[i*recordSize:]
		op := isa.Op(rec[19])
		if op >= isa.NumOps {
			return nil, fmt.Errorf("tracetest: record %d has invalid op %d", i, rec[19])
		}
		insts[i] = isa.Inst{
			PC:    binary.LittleEndian.Uint64(rec[0:]),
			Addr:  binary.LittleEndian.Uint64(rec[8:]),
			Src:   [2]isa.Reg{isa.Reg(rec[16]), isa.Reg(rec[17])},
			Dst:   isa.Reg(rec[18]),
			Op:    op,
			Taken: rec[20]&1 != 0,
		}
	}
	return trace.Rebuild(insts), nil
}

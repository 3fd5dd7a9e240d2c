// Package trace provides the dynamic instruction trace substrate: an
// append-only container of committed instructions annotated with true
// dataflow dependences (register last-writer and store-to-load), plus the
// CTR2 chunked on-disk store and summary statistics.
//
// The timing simulator, the critical-path analyzer and the idealized list
// scheduler all consume Traces; the workload package produces them.
package trace

import (
	"fmt"

	"clustersim/internal/isa"
)

// None marks an absent dependence in DepInfo.
const None int32 = -1

// DepInfo records, for one dynamic instruction, the index of the producer
// of each source operand and (for loads) of the youngest older store to the
// same address. The paper's machine has perfect memory disambiguation, so
// the store→load edge is the only memory ordering a load observes.
type DepInfo struct {
	Src [2]int32 // producing instruction index per source operand, or None
	Mem int32    // forwarding store index (loads only), or None
}

// Trace is a sequence of committed dynamic instructions with dependence
// annotations. Insts and Deps are parallel slices.
//
// Traces built by Builder or Rebuild additionally carry a pre-decoded
// producer index (a flat CSR layout) so the simulator's hot loop can read
// an instruction's producers as a subslice without re-walking DepInfo.
type Trace struct {
	Insts []isa.Inst
	Deps  []DepInfo

	// CSR producer index: the producers of instruction i are
	// prodIdx[prodOff[i]:prodOff[i+1]], in Producers order.
	prodOff []int32
	prodIdx []int32
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Insts) }

// Producers appends to dst the indices of the instructions whose results
// instruction i consumes (register sources and, for loads, the forwarding
// store), and returns the extended slice. Absent dependences are skipped.
func (t *Trace) Producers(i int, dst []int32) []int32 {
	d := &t.Deps[i]
	for _, p := range d.Src {
		if p != None {
			dst = append(dst, p)
		}
	}
	if d.Mem != None {
		dst = append(dst, d.Mem)
	}
	return dst
}

// ProducerSpan returns instruction i's producers as a shared read-only
// subslice of the pre-decoded producer index, in the same order Producers
// reports them. It builds the index on first use if the trace was
// assembled by hand; traces from Builder, Rebuild, Store.Load or
// Store.WindowTrace come with the index prebuilt, which is what makes
// sharing one Trace across concurrent simulations safe.
func (t *Trace) ProducerSpan(i int) []int32 {
	if t.prodOff == nil {
		t.EnsureProducerIndex()
	}
	return t.prodIdx[t.prodOff[i]:t.prodOff[i+1]]
}

// ProducerIndex exposes the raw CSR producer index (building it if
// needed): instruction i's producers are idx[off[i]:off[i+1]]. Callers
// iterating spans in a hot loop use this to keep both arrays in
// registers instead of re-chasing them through the Trace per call.
func (t *Trace) ProducerIndex() (off, idx []int32) {
	t.EnsureProducerIndex()
	return t.prodOff, t.prodIdx
}

// EnsureProducerIndex builds the CSR producer index if it is missing.
// It is not safe to call concurrently with other uses of the trace; call
// it once before sharing a hand-assembled trace between goroutines
// (Builder and Rebuild do this for you).
func (t *Trace) EnsureProducerIndex() {
	if t.prodOff == nil {
		t.indexProducers()
	}
}

// indexProducers (re)builds the CSR producer index from Deps into the
// index's own storage, growing it only when it does not fit.
func (t *Trace) indexProducers() {
	off := resize(t.prodOff, len(t.Deps)+1)
	off[0] = 0
	total := 0
	for i := range t.Deps {
		d := &t.Deps[i]
		if d.Src[0] != None {
			total++
		}
		if d.Src[1] != None {
			total++
		}
		if d.Mem != None {
			total++
		}
		off[i+1] = int32(total)
	}
	idx := t.prodIdx[:0]
	if cap(idx) < total {
		// A quarter's headroom over the old capacity keeps a reused
		// trace from reallocating whenever a window has a few more edges.
		idx = make([]int32, 0, max(total, cap(idx)+cap(idx)/4))
	}
	for i := range t.Deps {
		idx = t.Producers(i, idx)
	}
	t.prodOff, t.prodIdx = off, idx
}

// resize returns s with length n, reusing its storage when it fits.
// Reused elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Appender is the sink side of trace construction: the in-memory
// Builder and the streaming CTR2 Writer both satisfy it, so workload
// generation can emit to either without knowing which. Writer reports
// I/O failures through a sticky error checked at Close, keeping Append
// itself error-free for the hot emit path.
type Appender interface {
	// Append adds one dynamic instruction to the stream.
	Append(in isa.Inst)
	// Len returns the number of instructions appended so far.
	Len() int
}

// Builder incrementally constructs a Trace, computing dependence
// annotations as instructions are appended.
type Builder struct {
	tr Trace
	ds depState
}

// NewBuilder returns an empty Builder. capHint pre-sizes the instruction
// storage (pass 0 if unknown).
func NewBuilder(capHint int) *Builder {
	b := &Builder{}
	b.ds.reset()
	if capHint > 0 {
		b.tr.Insts = make([]isa.Inst, 0, capHint)
		b.tr.Deps = make([]DepInfo, 0, capHint)
	}
	return b
}

// Append adds one dynamic instruction and records its dependences.
func (b *Builder) Append(in isa.Inst) {
	d := b.ds.annotate(&in, int32(len(b.tr.Insts)))
	b.tr.Insts = append(b.tr.Insts, in)
	b.tr.Deps = append(b.tr.Deps, d)
}

// Len returns the number of instructions appended so far.
func (b *Builder) Len() int { return len(b.tr.Insts) }

// Trace returns the built trace with its producer index prebuilt. The
// Builder must not be used afterwards.
func (b *Builder) Trace() *Trace {
	t := b.tr
	b.tr = Trace{}
	t.EnsureProducerIndex()
	return &t
}

// Rebuild recomputes dependence annotations from the instruction stream.
// It is used by window slicing, by the tracetest record decoder and by
// tests to validate Builder incrementality.
func Rebuild(insts []isa.Inst) *Trace {
	b := NewBuilder(len(insts))
	for _, in := range insts {
		b.Append(in)
	}
	return b.Trace()
}

// Validate checks structural invariants: dependence indices are in range
// and strictly older than their consumer, memory dependences connect a
// store to a load at the same address, and register dependences name a
// producer that actually writes the consumed register.
func (t *Trace) Validate() error {
	if len(t.Insts) != len(t.Deps) {
		return fmt.Errorf("trace: %d insts but %d dep records", len(t.Insts), len(t.Deps))
	}
	for i := range t.Insts {
		in := &t.Insts[i]
		d := &t.Deps[i]
		for s := 0; s < 2; s++ {
			p := d.Src[s]
			if p == None {
				continue
			}
			if p < 0 || int(p) >= i {
				return fmt.Errorf("trace: inst %d src%d dep %d out of order", i, s, p)
			}
			if !in.Src[s].Valid() {
				return fmt.Errorf("trace: inst %d has dep on absent src%d", i, s)
			}
			if t.Insts[p].Dst != in.Src[s] {
				return fmt.Errorf("trace: inst %d src%d r%d produced by inst %d writing r%d",
					i, s, in.Src[s], p, t.Insts[p].Dst)
			}
		}
		if d.Mem != None {
			if in.Op != isa.Load {
				return fmt.Errorf("trace: inst %d (%s) has mem dep", i, in.Op)
			}
			p := d.Mem
			if p < 0 || int(p) >= i {
				return fmt.Errorf("trace: inst %d mem dep %d out of order", i, p)
			}
			if t.Insts[p].Op != isa.Store || t.Insts[p].Addr != in.Addr {
				return fmt.Errorf("trace: inst %d mem dep %d is not a matching store", i, p)
			}
		}
	}
	return nil
}

// Stats summarizes a trace's operation mix.
type Stats struct {
	Count    [isa.NumOps]int
	Total    int
	Branches int
	Taken    int
}

// Summarize computes op-mix statistics.
func (t *Trace) Summarize() Stats {
	var s Stats
	s.Total = len(t.Insts)
	for i := range t.Insts {
		in := &t.Insts[i]
		s.Count[in.Op]++
		if in.Op.IsBranch() {
			s.Branches++
			if in.Taken {
				s.Taken++
			}
		}
	}
	return s
}

// Frac returns the fraction of instructions with operation op.
func (s Stats) Frac(op isa.Op) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Count[op]) / float64(s.Total)
}

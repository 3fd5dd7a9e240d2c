// Package predictor implements the criticality predictors from the paper:
//
//   - the binary critical-path predictor of Fields et al. (ISCA'01): a
//     PC-indexed table of 6-bit saturating counters incremented by 8 when
//     an instruction trains critical and decremented by 1 otherwise, with
//     instructions predicted critical above a threshold of 8 (so 1-in-8
//     critical instances suffice to classify an instruction critical);
//
//   - the paper's likelihood-of-criticality (LoC) predictor: a 4-bit
//     probabilistic counter per static instruction stratifying LoC into 16
//     levels (Section 7, using the probabilistic update technique of Riley
//     & Zilles). The counter's expected value converges to 15× the
//     fraction of instances that were critical;
//
//   - an exact LoC tracker with unlimited precision, used by the oracle
//     studies (Section 4) and by the Figure 8 histogram.
package predictor

import (
	"fmt"
	"slices"

	"clustersim/internal/xrand"
)

// hash folds a PC into a table index. The low two bits of an instruction
// address carry no information (4-byte instructions), so they are dropped.
func hash(pc uint64, mask uint32) uint32 {
	x := pc >> 2
	x ^= x >> 17
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	return uint32(x) & mask
}

// DefaultBits is the default predictor table index width (64K entries,
// untagged, direct-mapped — generously sized, as in the paper's
// limit-style study).
const DefaultBits = 16

// Binary is the Fields et al. binary criticality predictor.
type Binary struct {
	counters []uint8
	mask     uint32
}

const (
	binaryMax       = 63 // 6-bit counter
	binaryInc       = 8
	binaryThreshold = 8
)

// NewBinary returns a binary criticality predictor with 2^bits entries.
func NewBinary(bits uint) *Binary {
	if bits == 0 || bits > 28 {
		panic("predictor: table bits out of range")
	}
	return &Binary{counters: make([]uint8, 1<<bits), mask: (1 << bits) - 1}
}

// NewDefaultBinary returns the default-sized binary predictor.
func NewDefaultBinary() *Binary { return NewBinary(DefaultBits) }

// Train updates the counter for pc with one observed instance.
func (b *Binary) Train(pc uint64, critical bool) {
	i := hash(pc, b.mask)
	if critical {
		c := b.counters[i] + binaryInc
		if c > binaryMax || c < b.counters[i] {
			c = binaryMax
		}
		b.counters[i] = c
	} else if b.counters[i] > 0 {
		b.counters[i]--
	}
}

// Predict reports whether the instruction at pc is predicted critical.
func (b *Binary) Predict(pc uint64) bool {
	return b.counters[hash(pc, b.mask)] >= binaryThreshold
}

// Reset clears all counters.
func (b *Binary) Reset() {
	for i := range b.counters {
		b.counters[i] = 0
	}
}

// LoCLevels is the number of likelihood-of-criticality strata. Section 7:
// "stratifying LoC into 16 levels produces results almost equivalent to a
// counter with unlimited precision".
const LoCLevels = 16

// LoC is the 4-bit probabilistic likelihood-of-criticality predictor.
//
// Update rule: on a critical instance the counter increments with
// probability (15−c)/15; on a non-critical instance it decrements with
// probability c/15. At equilibrium E[c] = 15·f where f is the instruction's
// criticality frequency, so Level() stratifies LoC into 16 levels using
// only 4 bits of storage.
type LoC struct {
	counters []uint8
	mask     uint32
	rng      *xrand.Rand
}

// NewLoC returns a LoC predictor with 2^bits entries, drawing update
// randomness from rng (which must not be nil).
func NewLoC(bits uint, rng *xrand.Rand) *LoC {
	if bits == 0 || bits > 28 {
		panic("predictor: table bits out of range")
	}
	if rng == nil {
		panic("predictor: nil rng")
	}
	return &LoC{counters: make([]uint8, 1<<bits), mask: (1 << bits) - 1, rng: rng}
}

// NewDefaultLoC returns the default-sized LoC predictor.
func NewDefaultLoC(rng *xrand.Rand) *LoC { return NewLoC(DefaultBits, rng) }

// Train updates the probabilistic counter for pc with one instance.
func (l *LoC) Train(pc uint64, critical bool) {
	i := hash(pc, l.mask)
	c := l.counters[i]
	const max = LoCLevels - 1
	if critical {
		if c < max && l.rng.Bool(float64(max-c)/float64(max)) {
			l.counters[i] = c + 1
		}
	} else {
		if c > 0 && l.rng.Bool(float64(c)/float64(max)) {
			l.counters[i] = c - 1
		}
	}
}

// Level returns the LoC stratum for pc, in [0, LoCLevels).
func (l *LoC) Level(pc uint64) int { return int(l.counters[hash(pc, l.mask)]) }

// Frac returns the predicted likelihood of criticality in [0, 1].
func (l *LoC) Frac(pc uint64) float64 {
	return float64(l.Level(pc)) / float64(LoCLevels-1)
}

// Reset clears all counters.
func (l *LoC) Reset() {
	for i := range l.counters {
		l.counters[i] = 0
	}
}

// Exact tracks per-static-instruction criticality frequency with unlimited
// precision. It serves as the oracle LoC source for the Section 4 list
// scheduler variants and as the data source for Figure 8.
type Exact struct {
	critical map[uint64]uint64
	total    map[uint64]uint64
}

// NewExact returns an empty exact tracker.
func NewExact() *Exact {
	return &Exact{critical: make(map[uint64]uint64), total: make(map[uint64]uint64)}
}

// Train records one instance.
func (e *Exact) Train(pc uint64, critical bool) {
	e.total[pc]++
	if critical {
		e.critical[pc]++
	}
}

// Frac returns the observed criticality frequency of pc (0 if unseen).
func (e *Exact) Frac(pc uint64) float64 {
	t := e.total[pc]
	if t == 0 {
		return 0
	}
	return float64(e.critical[pc]) / float64(t)
}

// Level quantizes Frac into LoCLevels strata.
func (e *Exact) Level(pc uint64) int {
	lvl := int(e.Frac(pc)*float64(LoCLevels-1) + 0.5)
	if lvl >= LoCLevels {
		lvl = LoCLevels - 1
	}
	return lvl
}

// Seen returns the number of instances observed for pc.
func (e *Exact) Seen(pc uint64) uint64 { return e.total[pc] }

// PCs returns every static instruction observed, in unspecified order.
func (e *Exact) PCs() []uint64 {
	out := make([]uint64, 0, len(e.total))
	for pc := range e.total {
		out = append(out, pc)
	}
	return out
}

// ExactCounts is an exact tracker's state as parallel columns, sorted by
// PC: Critical[i] of Total[i] observed instances of PC[i] trained
// critical. It is the tracker's persistent form.
type ExactCounts struct {
	PC       []uint64
	Critical []uint64
	Total    []uint64
}

// Counts exports the tracker's state.
func (e *Exact) Counts() ExactCounts {
	pcs := e.PCs()
	slices.Sort(pcs)
	c := ExactCounts{
		PC:       pcs,
		Critical: make([]uint64, len(pcs)),
		Total:    make([]uint64, len(pcs)),
	}
	for i, pc := range pcs {
		c.Critical[i] = e.critical[pc]
		c.Total[i] = e.total[pc]
	}
	return c
}

// ExactFromCounts rebuilds a tracker from Counts' output. It rejects
// ragged columns, unsorted or repeated PCs, and entries claiming more
// critical instances than observed ones (or none observed).
func ExactFromCounts(c ExactCounts) (*Exact, error) {
	if len(c.Critical) != len(c.PC) || len(c.Total) != len(c.PC) {
		return nil, fmt.Errorf("predictor: exact counts have ragged columns")
	}
	e := NewExact()
	for i, pc := range c.PC {
		if i > 0 && pc <= c.PC[i-1] {
			return nil, fmt.Errorf("predictor: exact counts PCs not strictly increasing")
		}
		if c.Total[i] == 0 || c.Critical[i] > c.Total[i] {
			return nil, fmt.Errorf("predictor: exact counts for pc %#x: %d critical of %d",
				pc, c.Critical[i], c.Total[i])
		}
		e.total[pc] = c.Total[i]
		if c.Critical[i] > 0 {
			e.critical[pc] = c.Critical[i]
		}
	}
	return e, nil
}

// Histogram buckets the dynamic-instance-weighted LoC distribution into
// bins of width 1/bins, as in Figure 8 (which uses 5% bins). Each static
// instruction contributes its instance count to the bin of its frequency.
func (e *Exact) Histogram(bins int) []float64 {
	h := make([]float64, bins)
	var totalInstances float64
	for pc, t := range e.total {
		f := e.Frac(pc)
		b := int(f * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		h[b] += float64(t)
		totalInstances += float64(t)
	}
	if totalInstances > 0 {
		for i := range h {
			h[i] = h[i] / totalInstances * 100 // percent of dynamic instructions
		}
	}
	return h
}

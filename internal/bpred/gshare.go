// Package bpred implements the front end's branch direction predictor.
//
// The paper's machine (Table 1) uses a gshare predictor with 16 bits of
// global history: the pattern history table is indexed by the XOR of the
// branch PC and the global history register, and each entry is a 2-bit
// saturating counter.
package bpred

// HistoryBits is the paper's global history length.
const HistoryBits = 16

// Gshare is a gshare branch direction predictor.
type Gshare struct {
	pht     []uint8 // 2-bit counters
	history uint32
	mask    uint32
	bits    uint

	// statistics
	lookups uint64
	misses  uint64
}

// NewGshare returns a predictor with 2^bits pattern-history entries and a
// global history of min(bits, HistoryBits) bits. Counters initialize to
// weakly taken (2), the customary reset state.
func NewGshare(bits uint) *Gshare {
	if bits == 0 || bits > 30 {
		panic("bpred: history bits out of range")
	}
	g := &Gshare{
		pht:  make([]uint8, 1<<bits),
		mask: (1 << bits) - 1,
		bits: bits,
	}
	for i := range g.pht {
		g.pht[i] = 2
	}
	return g
}

// New returns the paper's configuration: gshare with 16 bits of history.
func New() *Gshare { return NewGshare(HistoryBits) }

func (g *Gshare) index(pc uint64) uint32 {
	return (uint32(pc>>2) ^ g.history) & g.mask
}

// Predict returns the predicted direction for the branch at pc without
// updating any state.
func (g *Gshare) Predict(pc uint64) bool {
	return g.pht[g.index(pc)] >= 2
}

// Update trains the predictor with the branch's resolved direction and
// advances the global history. It returns whether the prediction (made
// with the pre-update state) was correct.
//
// The trace-driven simulator calls Update at fetch: history is thus
// maintained with perfect (oracle) outcomes, a standard trace-driven
// simplification that matches committed-path gshare behavior.
func (g *Gshare) Update(pc uint64, taken bool) (correct bool) {
	i := g.index(pc)
	pred := g.pht[i] >= 2
	correct = pred == taken
	if taken {
		if g.pht[i] < 3 {
			g.pht[i]++
		}
	} else if g.pht[i] > 0 {
		g.pht[i]--
	}
	g.history = ((g.history << 1) | b2u(taken)) & g.mask
	g.lookups++
	if !correct {
		g.misses++
	}
	return correct
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Bits returns the log2 of the pattern-history table size.
func (g *Gshare) Bits() uint { return g.bits }

// Reset clears all predictor state and statistics.
func (g *Gshare) Reset() {
	for i := range g.pht {
		g.pht[i] = 2
	}
	g.history = 0
	g.lookups = 0
	g.misses = 0
}

// Accuracy returns the fraction of Update calls whose prediction was
// correct, and the number of predictions made.
func (g *Gshare) Accuracy() (frac float64, n uint64) {
	if g.lookups == 0 {
		return 1, 0
	}
	return 1 - float64(g.misses)/float64(g.lookups), g.lookups
}

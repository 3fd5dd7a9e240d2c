package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/critpath"
	"clustersim/internal/stats"
)

// LoCOracleResult reproduces Section 4's in-text study: the idealized
// list scheduler re-run with progressively weaker criticality knowledge.
// The paper reports average losses of ~1%/2% (oracle), 0.5/1.5/2.7% (LoC)
// and 1.5/5/9.8% (binary) for the 2-/4-/8-cluster machines.
type LoCOracleResult struct {
	// Loss[priority][i] is the average normalized-CPI excess (vs the
	// idealized monolithic schedule) for clusterCounts[i].
	Loss map[string][]float64
}

// Priority names used by LoCOracle.
const (
	PriOracle       = "oracle"
	PriLoC16        = "loc16"
	PriLoCUnlimited = "loc-unlimited"
	PriBinary       = "binary"
)

// LoCOracle runs the list scheduler with each priority source.
func LoCOracle(opts Options) (*LoCOracleResult, error) {
	opts = opts.WithDefaults()
	names := []string{PriOracle, PriLoC16, PriLoCUnlimited, PriBinary}
	losses, err := parBench(opts, func(bench string) (map[string][]float64, error) {
		// The LoC/binary priorities use past criticality observed on the
		// monolithic machine, via the detector's exact tracker; all 13
		// variants (mono baseline + 3 cluster counts × 4 priorities) go
		// through the schedule cache as one fused batch.
		specs := []schedSpec{{clusters: 1, fwd: opts.Fwd, pri: PriOracle}}
		for _, k := range clusterCounts {
			for _, name := range names {
				specs = append(specs, schedSpec{clusters: k, fwd: opts.Fwd, pri: name})
			}
		}
		ss, err := idealSchedules(opts, bench, StackFocused, true, specs)
		if err != nil {
			return nil, err
		}
		mono := float64(ss[0].Makespan)
		local := map[string][]float64{}
		for _, name := range names {
			local[name] = make([]float64, len(clusterCounts))
		}
		for i := range clusterCounts {
			for j, name := range names {
				local[name][i] = float64(ss[1+i*len(names)+j].Makespan)/mono - 1
			}
		}
		return local, nil
	})
	if err != nil {
		return nil, err
	}
	sums := map[string][]float64{}
	for _, pri := range []string{PriOracle, PriLoC16, PriLoCUnlimited, PriBinary} {
		sums[pri] = make([]float64, len(clusterCounts))
	}
	for _, local := range losses {
		for name, vals := range local {
			for i, v := range vals {
				sums[name][i] += v
			}
		}
	}
	r := &LoCOracleResult{Loss: map[string][]float64{}}
	for name, s := range sums {
		loss := make([]float64, len(s))
		for i := range s {
			loss[i] = s[i] / float64(len(opts.Benchmarks))
		}
		r.Loss[name] = loss
	}
	return r, nil
}

// Render writes the priority-knowledge comparison.
func (r *LoCOracleResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Section 4: list-scheduler priority knowledge (average loss vs idealized monolithic)")
	fmt.Fprintf(w, "%-14s %8s %8s %8s\n", "priority", "2x4w", "4x2w", "8x1w")
	for _, name := range []string{PriOracle, PriLoCUnlimited, PriLoC16, PriBinary} {
		l := r.Loss[name]
		fmt.Fprintf(w, "%-14s %7.1f%% %7.1f%% %7.1f%%\n", name, l[0]*100, l[1]*100, l[2]*100)
	}
}

// ConsumersResult reproduces Section 6's producer/consumer statistics.
type ConsumersResult struct {
	Table *stats.Table
	// Averages across benchmarks: MCC-not-first fraction, statically
	// unique fraction, bimodal fraction.
	MCCNotFirst      float64
	StaticallyUnique float64
	Bimodal          float64
}

// Consumers runs the dataflow analysis on every benchmark.
func Consumers(opts Options) (*ConsumersResult, error) {
	opts = opts.WithDefaults()
	t := &stats.Table{Title: "Section 6: producer/consumer criticality analysis",
		Columns: []string{"mcc-not-first", "static-unique", "bimodal"}}
	rows, err := parBench(opts, func(bench string) ([3]float64, error) {
		tr, err := genTrace(opts, bench)
		if err != nil {
			return [3]float64{}, err
		}
		// Figure 8's run: a warm disk cache serves its persisted exact
		// tracker without simulating.
		out, err := sim(opts, bench, 4, StackFocused, true)
		if err != nil {
			return [3]float64{}, err
		}
		s := critpath.AnalyzeConsumers(tr, out.Exact)
		return [3]float64{s.MCCNotFirstFrac(), s.StaticallyUniqueFrac, s.BimodalFrac}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, bench := range opts.Benchmarks {
		t.AddRow(bench, rows[i][0], rows[i][1], rows[i][2])
	}
	means := t.ColumnMeans()
	t.AddRow("AVE", means...)
	return &ConsumersResult{Table: t, MCCNotFirst: means[0],
		StaticallyUnique: means[1], Bimodal: means[2]}, nil
}

// Render writes the consumer statistics.
func (r *ConsumersResult) Render(w io.Writer) { r.Table.Render(w) }

// Figure2Attribution reports the convergent-dataflow share of idealized-
// schedule cross-cluster edges per benchmark (the Section 2.2 analysis).
type Figure2Attribution struct {
	Table *stats.Table
}

// AttributeFigure2 computes per-benchmark dyadic-cross shares on the
// 8x1w idealized schedule.
func AttributeFigure2(opts Options) (*Figure2Attribution, error) {
	opts = opts.WithDefaults()
	t := &stats.Table{Title: "Section 2.2: convergent dataflow in idealized schedules (8x1w)",
		Columns: []string{"cross/1kinst", "dyadic-share"}}
	rows, err := parBench(opts, func(bench string) ([2]float64, error) {
		// Same schedule key as Figure 2's 8x1w point, so with a shared
		// engine this driver neither simulates nor reschedules anything.
		ss, err := idealSchedules(opts, bench, StackDepBased, false,
			[]schedSpec{{clusters: 8, fwd: opts.Fwd, pri: PriOracle}})
		if err != nil {
			return [2]float64{}, err
		}
		s := ss[0]
		share := 0.0
		if s.CrossEdges > 0 {
			share = float64(s.DyadicCross) / float64(s.CrossEdges)
		}
		return [2]float64{float64(s.CrossEdges) * 1000 / float64(s.Insts), share}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, bench := range opts.Benchmarks {
		t.AddRow(bench, rows[i][0], rows[i][1])
	}
	t.AddRow("AVE", t.ColumnMeans()...)
	return &Figure2Attribution{Table: t}, nil
}

// Render writes the attribution table.
func (r *Figure2Attribution) Render(w io.Writer) { r.Table.Render(w) }

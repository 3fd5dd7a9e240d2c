package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/machine"
	"clustersim/internal/stats"
)

// Figure8Result reproduces Figure 8: the distribution of LoC values,
// weighted by dynamic instructions and averaged across benchmarks.
type Figure8Result struct {
	// Bins holds the percentage of dynamic instructions per 5%-wide LoC
	// bin (20 bins).
	Bins []float64
	// NotCriticalShare is the share of dynamic instructions below the
	// binary predictor's effective threshold (the paper's dashed line at
	// 1-in-8 = 12.5%).
	NotCriticalShare float64
}

// Figure8 measures observed LoC distributions on the 4x2w machine under
// focused steering (the configuration Section 4 analyzes).
func Figure8(opts Options) (*Figure8Result, error) {
	opts = opts.WithDefaults()
	const bins = 20
	hists, err := parBench(opts, func(bench string) ([]float64, error) {
		out, err := sim(opts, bench, 4, StackFocused, true)
		if err != nil {
			return nil, err
		}
		return out.Exact.Histogram(bins), nil
	})
	if err != nil {
		return nil, err
	}
	acc := make([]float64, bins)
	for _, h := range hists {
		for i := range acc {
			acc[i] += h[i]
		}
	}
	for i := range acc {
		acc[i] /= float64(len(opts.Benchmarks))
	}
	r := &Figure8Result{Bins: acc}
	// The Fields threshold (1/8 criticality) falls inside the 10–15%
	// bin; count bins strictly below 12.5% plus half of the bin that
	// straddles it.
	for i, v := range acc {
		lo := float64(i) * 5
		hi := lo + 5
		switch {
		case hi <= 12.5:
			r.NotCriticalShare += v
		case lo < 12.5:
			r.NotCriticalShare += v * (12.5 - lo) / 5
		}
	}
	return r, nil
}

// Render writes the LoC histogram.
func (r *Figure8Result) Render(w io.Writer) {
	labels := make([]string, len(r.Bins))
	for i := range labels {
		labels[i] = fmt.Sprintf("%d-%d%%", i*5, i*5+5)
	}
	stats.Histogram(w, "Figure 8: distribution of LoC values (% dynamic instructions)", labels, r.Bins, 50)
	fmt.Fprintf(w, "below Fields binary threshold (12.5%%): %.0f%% of dynamic instructions\n",
		r.NotCriticalShare)
}

// Figure14Result reproduces Figure 14: the cumulative policy stacks on
// each clustered configuration, normalized to a monolithic machine with
// LoC-based scheduling, with the critical-path share of forwarding delay
// and contention per bar.
type Figure14Result struct {
	// NormCPI[config][stack] -> per-benchmark normalized CPIs. Stacks
	// follow Stacks(); the proactive stack is measured on every
	// configuration but, as in the paper, only expected to help 8x1w.
	NormCPI map[string]map[Stack][]float64
	// Fwd and Cont are critical-path forwarding/contention in normalized
	// CPI units per bar (matching Figure 14's shading).
	Fwd  map[string]map[Stack][]float64
	Cont map[string]map[Stack][]float64
	// GlobalValuesPerInst per config for the final stack (Section 2.1's
	// 0.12/0.20/0.25 figures).
	GlobalValuesPerInst map[string]float64
	Benchmarks          []string
}

// Figure14 runs the full policy progression.
func Figure14(opts Options) (*Figure14Result, error) {
	opts = opts.WithDefaults()
	r := &Figure14Result{
		NormCPI:             map[string]map[Stack][]float64{},
		Fwd:                 map[string]map[Stack][]float64{},
		Cont:                map[string]map[Stack][]float64{},
		GlobalValuesPerInst: map[string]float64{},
		Benchmarks:          opts.Benchmarks,
	}
	type cell struct {
		name      string
		stack     Stack
		normCPI   float64
		fwd, cont float64
		gv        float64
		haveGV    bool
	}
	cells, err := parBench(opts, func(bench string) ([]cell, error) {
		// Normalization baseline: monolithic with LoC-based scheduling.
		base, err := sim(opts, bench, 1, StackLoC, false)
		if err != nil {
			return nil, err
		}
		baseCPI := base.Res.CPI()
		var out []cell
		for _, k := range clusterCounts {
			for _, stack := range Stacks() {
				a, run, err := analysis(opts, bench, k, stack)
				if err != nil {
					return nil, err
				}
				norm := 1.0 / (float64(run.Res.Insts) * baseCPI)
				c := cell{
					name:    run.Res.ConfigName,
					stack:   stack,
					normCPI: run.Res.CPI() / baseCPI,
					fwd:     float64(a.Breakdown.FwdDelay) * norm,
					cont:    float64(a.Breakdown.Contention) * norm,
				}
				if stack == StackProactive {
					c.gv = run.Res.GlobalValuesPerInst()
					c.haveGV = true
				}
				out = append(out, c)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	gvAccum := map[string][]float64{}
	for _, benchCells := range cells {
		for _, c := range benchCells {
			if r.NormCPI[c.name] == nil {
				r.NormCPI[c.name] = map[Stack][]float64{}
				r.Fwd[c.name] = map[Stack][]float64{}
				r.Cont[c.name] = map[Stack][]float64{}
			}
			r.NormCPI[c.name][c.stack] = append(r.NormCPI[c.name][c.stack], c.normCPI)
			r.Fwd[c.name][c.stack] = append(r.Fwd[c.name][c.stack], c.fwd)
			r.Cont[c.name][c.stack] = append(r.Cont[c.name][c.stack], c.cont)
			if c.haveGV {
				gvAccum[c.name] = append(gvAccum[c.name], c.gv)
			}
		}
	}
	for name, vals := range gvAccum {
		r.GlobalValuesPerInst[name] = stats.Mean(vals)
	}
	return r, nil
}

// PenaltyReduction returns, for a configuration, the average fraction of
// the focused-baseline clustering penalty removed by the final policy
// stack (the paper reports 42/57/66% for 2/4/8 clusters). For 2- and
// 4-cluster machines the final stack is "s" (proactive targets 1-wide
// clusters); for 8 clusters it is "p".
func (r *Figure14Result) PenaltyReduction(config string) float64 {
	final := StackStall
	if config == "8x1w" {
		final = StackProactive
	}
	base := r.NormCPI[config][StackFocused]
	fin := r.NormCPI[config][final]
	var reds []float64
	for i := range base {
		penalty := base[i] - 1
		if penalty <= 0.005 {
			continue // no measurable penalty to reduce
		}
		reds = append(reds, (base[i]-fin[i])/penalty)
	}
	return stats.Mean(reds)
}

// Render writes the Figure 14 table.
func (r *Figure14Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 14: policy stacks (normalized CPI; fwd/cont are critical-path shares)")
	fmt.Fprintf(w, "%-6s %-8s %9s %7s %7s\n", "cfg", "stack", "normCPI", "fwd", "cont")
	for _, cfgName := range []string{"2x4w", "4x2w", "8x1w"} {
		for _, stack := range Stacks() {
			fmt.Fprintf(w, "%-6s %-8s %9.3f %7.3f %7.3f\n", cfgName, stack,
				stats.Mean(r.NormCPI[cfgName][stack]),
				stats.Mean(r.Fwd[cfgName][stack]),
				stats.Mean(r.Cont[cfgName][stack]))
		}
		fmt.Fprintf(w, "%-6s penalty reduction vs focused: %.0f%%; global values/inst: %.3f\n",
			cfgName, r.PenaltyReduction(cfgName)*100, r.GlobalValuesPerInst[cfgName])
	}
}

// RenderPerBench writes the per-benchmark Figure 14 bars (the paper's
// figure is per-benchmark; Render gives the averages).
func (r *Figure14Result) RenderPerBench(w io.Writer) {
	fmt.Fprintln(w, "Figure 14 (per benchmark): normalized CPI per policy stack")
	fmt.Fprintf(w, "%-8s %-6s", "bench", "cfg")
	for _, stack := range Stacks() {
		fmt.Fprintf(w, "%9s", stack)
	}
	fmt.Fprintln(w)
	for i, bench := range r.Benchmarks {
		for _, cfgName := range []string{"2x4w", "4x2w", "8x1w"} {
			fmt.Fprintf(w, "%-8s %-6s", bench, cfgName)
			for _, stack := range Stacks() {
				fmt.Fprintf(w, "%9.3f", r.NormCPI[cfgName][stack][i])
			}
			fmt.Fprintln(w)
		}
	}
}

// Figure15Result reproduces Figure 15: achieved vs available ILP on the
// 8x1w machine with the final policy stack.
type Figure15Result struct {
	// Available[i] is the available-ILP bucket; Achieved[i] the average
	// instructions issued on cycles with that availability.
	Available []int
	Achieved  []float64
	// CycleShare[i] is the fraction of cycles in bucket i.
	CycleShare []float64
}

// Figure15 measures the ILP extraction profile.
func Figure15(opts Options) (*Figure15Result, error) {
	opts = opts.WithDefaults()
	results, err := parBench(opts, func(bench string) (machine.Result, error) {
		out, err := sim(opts, bench, 8, StackProactive, false)
		if err != nil {
			return machine.Result{}, err
		}
		return out.Res, nil
	})
	if err != nil {
		return nil, err
	}
	var avail, issued [machine.MaxILPBucket + 1]int64
	for _, res := range results {
		for b := 0; b <= machine.MaxILPBucket; b++ {
			avail[b] += res.ILPAvail[b]
			issued[b] += res.ILPIssued[b]
		}
	}
	r := &Figure15Result{}
	var total int64
	for b := 0; b <= machine.MaxILPBucket; b++ {
		total += avail[b]
	}
	for b := 0; b <= machine.MaxILPBucket; b++ {
		if avail[b] == 0 {
			continue
		}
		r.Available = append(r.Available, b)
		r.Achieved = append(r.Achieved, float64(issued[b])/float64(avail[b]))
		r.CycleShare = append(r.CycleShare, float64(avail[b])/float64(total))
	}
	return r, nil
}

// AchievedAt returns the achieved ILP for an available-ILP bucket (0 if
// the bucket never occurred).
func (r *Figure15Result) AchievedAt(available int) float64 {
	for i, a := range r.Available {
		if a == available {
			return r.Achieved[i]
		}
	}
	return 0
}

// Render writes the ILP table.
func (r *Figure15Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 15: achieved vs available ILP (8x1w, final policies)")
	fmt.Fprintf(w, "%9s %9s %11s\n", "available", "achieved", "cycle-share")
	for i := range r.Available {
		fmt.Fprintf(w, "%9d %9.2f %10.1f%%\n", r.Available[i], r.Achieved[i], r.CycleShare[i]*100)
	}
}

// ConfigTable renders Table 1 (the machine parameters) for the paper's
// four configurations.
func ConfigTable(w io.Writer) {
	fmt.Fprintln(w, "Table 1: machine configurations (8-wide machine partitioned across clusters)")
	fmt.Fprintf(w, "%-6s %7s %5s %4s %4s %7s %5s %6s %6s\n",
		"cfg", "issue/c", "int/c", "fp/c", "mem/c", "window/c", "ROB", "fetch", "fwd")
	for _, k := range []int{1, 2, 4, 8} {
		c := machine.NewConfig(k)
		fmt.Fprintf(w, "%-6s %7d %5d %4d %4d %7d %5d %6d %6d\n",
			c.Name(), c.IssuePerCluster, c.IntPerCluster, c.FPPerCluster, c.MemPerCluster,
			c.WindowPerCluster, c.ROBSize, c.FetchWidth, c.FwdLatency)
	}
	l1 := machine.NewConfig(1).L1
	fmt.Fprintf(w, "L1: %dKB %d-way %d-cycle, %d-byte lines; L2: infinite, %d cycles; gshare %d bits; %d-stage front end\n",
		l1.SizeBytes>>10, l1.Ways, l1.HitCycles, l1.LineBytes, l1.MissCycles,
		machine.NewConfig(1).GshareBits, machine.NewConfig(1).PipelineDepth)
}

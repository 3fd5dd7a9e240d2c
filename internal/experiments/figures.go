package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/stats"
)

// clusterCounts is the paper's clustered configurations.
var clusterCounts = []int{2, 4, 8}

// Figure2Result reproduces Figure 2: normalized CPI of idealized list
// schedules on 2-, 4- and 8-cluster machines, relative to the idealized
// monolithic schedule.
type Figure2Result struct {
	Table *stats.Table
	// DyadicCrossFrac is the fraction of cross-cluster edges whose
	// consumer is dyadic, averaged over benchmarks on the 8x1w config —
	// the convergent-dataflow indicator of Section 2.2.
	DyadicCrossFrac float64
}

// Figure2 runs the idealized study.
func Figure2(opts Options) (*Figure2Result, error) {
	opts = opts.WithDefaults()
	t := &stats.Table{Title: "Figure 2: idealized list scheduling (normalized CPI vs monolithic schedule)",
		Columns: []string{"2x4w", "4x2w", "8x1w"}}
	type row struct {
		vals       []float64
		dyadic     float64
		haveDyadic bool
	}
	rows, err := parBench(opts, func(bench string) (row, error) {
		var r row
		// The harvest (dispatch/latency/misprediction constraints from
		// the monolithic machine's retirement stream) and the schedules
		// themselves both come from the engine's caches, shared with the
		// other idealized studies: fwd-sweep, fig2-attrib and the
		// replication study resolve to the same schedule keys.
		ss, err := idealSchedules(opts, bench, StackDepBased, false, oracleSweepSpecs(opts.Fwd))
		if err != nil {
			return r, err
		}
		mono := ss[0]
		for i, k := range clusterCounts {
			s := ss[i+1]
			r.vals = append(r.vals, float64(s.Makespan)/float64(mono.Makespan))
			if k == 8 && s.CrossEdges > 0 {
				r.dyadic = float64(s.DyadicCross) / float64(s.CrossEdges)
				r.haveDyadic = true
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	var dyadicFrac []float64
	for i, bench := range opts.Benchmarks {
		t.AddRow(bench, rows[i].vals...)
		if rows[i].haveDyadic {
			dyadicFrac = append(dyadicFrac, rows[i].dyadic)
		}
	}
	t.AddRow("AVE", t.ColumnMeans()...)
	return &Figure2Result{Table: t, DyadicCrossFrac: stats.Mean(dyadicFrac)}, nil
}

// Render writes the result.
func (r *Figure2Result) Render(w io.Writer) {
	r.Table.Render(w)
	fmt.Fprintf(w, "dyadic share of cross-cluster edges (8x1w): %.0f%%\n", r.DyadicCrossFrac*100)
}

// Figure4Result reproduces Figure 4: CPI of focused steering and
// scheduling normalized to the monolithic machine with the same policy.
type Figure4Result struct {
	Table *stats.Table
}

// Figure4 measures the state-of-the-art baseline.
func Figure4(opts Options) (*Figure4Result, error) {
	opts = opts.WithDefaults()
	rows, err := parBench(opts, func(bench string) ([]float64, error) {
		// All four geometries of one benchmark run as a single fused
		// batch: one trace decode, one producer index, one shared
		// front-end profile — cached misses only, under the same SimKeys
		// single-simulation submissions use.
		arts, err := simVariants(opts, bench, stackVariants(StackFocused, append([]int{1}, clusterCounts...)...), false)
		if err != nil {
			return nil, err
		}
		base := arts[0]
		var vals []float64
		for _, out := range arts[1:] {
			vals = append(vals, out.Res.CPI()/base.Res.CPI())
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure4Result{Table: sweepTable("Figure 4: focused steering and scheduling (normalized CPI)",
		[]string{"2x4w", "4x2w", "8x1w"}, opts, rows)}, nil
}

// Render writes the result.
func (r *Figure4Result) Render(w io.Writer) { r.Table.Render(w) }

// BreakdownRow is one stacked bar of Figure 5: the critical-path CPI
// decomposition for one benchmark and configuration, normalized to the
// monolithic machine's CPI (so the monolithic bar totals 1.0).
type BreakdownRow struct {
	Bench      string
	Config     string
	FwdDelay   float64
	Contention float64
	Execute    float64
	Window     float64
	Fetch      float64
	MemLatency float64
	BrMispr    float64
	Commit     float64
}

// Total returns the bar height (the configuration's normalized CPI).
func (b BreakdownRow) Total() float64 {
	return b.FwdDelay + b.Contention + b.Execute + b.Window + b.Fetch +
		b.MemLatency + b.BrMispr + b.Commit
}

// Figure5Result reproduces Figure 5 (and carries the event counts that
// become Figure 6, which analyzes the same runs).
type Figure5Result struct {
	Rows []BreakdownRow
	// Figure 6(a): contention-stall events on the critical path per
	// 1000 instructions, split by predicted criticality.
	ContCritical map[string][]float64 // config name -> per-benchmark rates
	ContOther    map[string][]float64
	// Figure 6(b): forwarding events per 1000 instructions by cause.
	FwdLoadBal map[string][]float64
	FwdDyadic  map[string][]float64
	FwdOther   map[string][]float64
	Benchmarks []string
}

// Figure5 runs focused steering on every configuration and attributes
// the critical path.
func Figure5(opts Options) (*Figure5Result, error) {
	opts = opts.WithDefaults()
	r := &Figure5Result{
		ContCritical: map[string][]float64{}, ContOther: map[string][]float64{},
		FwdLoadBal: map[string][]float64{}, FwdDyadic: map[string][]float64{},
		FwdOther:   map[string][]float64{},
		Benchmarks: opts.Benchmarks,
	}
	configs := append([]int{1}, clusterCounts...)
	type rates struct {
		name                                             string
		contCrit, contOther, fwdLoadBal, fwdDyad, fwdOth float64
	}
	type benchOut struct {
		rows  []BreakdownRow
		rates []rates
	}
	outs, err := parBench(opts, func(bench string) (benchOut, error) {
		var bo benchOut
		var monoCPI float64
		for _, k := range configs {
			a, out, err := analysis(opts, bench, k, StackFocused)
			if err != nil {
				return bo, err
			}
			if k == 1 {
				monoCPI = out.Res.CPI()
			}
			n := float64(out.Res.Insts)
			norm := 1.0 / (n * monoCPI)
			name := out.Res.ConfigName
			bo.rows = append(bo.rows, BreakdownRow{
				Bench:      bench,
				Config:     name,
				FwdDelay:   float64(a.Breakdown.FwdDelay) * norm,
				Contention: float64(a.Breakdown.Contention) * norm,
				Execute:    float64(a.Breakdown.Execute) * norm,
				Window:     float64(a.Breakdown.Window) * norm,
				Fetch:      float64(a.Breakdown.Fetch) * norm,
				MemLatency: float64(a.Breakdown.MemLatency) * norm,
				BrMispr:    float64(a.Breakdown.BrMispredict) * norm,
				Commit:     float64(a.Breakdown.Commit) * norm,
			})
			if k != 1 {
				per1k := 1000.0 / n
				bo.rates = append(bo.rates, rates{
					name:       name,
					contCrit:   float64(a.ContentionCritical) * per1k,
					contOther:  float64(a.ContentionOther) * per1k,
					fwdLoadBal: float64(a.FwdLoadBal) * per1k,
					fwdDyad:    float64(a.FwdDyadic) * per1k,
					fwdOth:     float64(a.FwdOther) * per1k,
				})
			}
		}
		return bo, nil
	})
	if err != nil {
		return nil, err
	}
	for _, bo := range outs {
		r.Rows = append(r.Rows, bo.rows...)
		for _, rt := range bo.rates {
			r.ContCritical[rt.name] = append(r.ContCritical[rt.name], rt.contCrit)
			r.ContOther[rt.name] = append(r.ContOther[rt.name], rt.contOther)
			r.FwdLoadBal[rt.name] = append(r.FwdLoadBal[rt.name], rt.fwdLoadBal)
			r.FwdDyadic[rt.name] = append(r.FwdDyadic[rt.name], rt.fwdDyad)
			r.FwdOther[rt.name] = append(r.FwdOther[rt.name], rt.fwdOth)
		}
	}
	return r, nil
}

// Render writes the Figure 5 stacked breakdown.
func (r *Figure5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: critical-path breakdown (normalized CPI; columns stack to the bar height)")
	fmt.Fprintf(w, "%-8s %-5s %6s %6s %6s %6s %6s %6s %6s %6s %7s\n",
		"bench", "cfg", "fwd", "cont", "exec", "win", "fetch", "mem", "brmis", "commit", "total")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %-5s %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f %7.3f\n",
			row.Bench, row.Config, row.FwdDelay, row.Contention, row.Execute,
			row.Window, row.Fetch, row.MemLatency, row.BrMispr, row.Commit, row.Total())
	}
}

// RenderFigure6 writes the event breakdowns of Figure 6.
func (r *Figure5Result) RenderFigure6(w io.Writer) {
	fmt.Fprintln(w, "Figure 6a: critical contention stalls per 1000 instructions (critical vs other)")
	fmt.Fprintf(w, "%-6s %10s %10s %10s\n", "cfg", "critical", "other", "crit-share")
	for _, cfgName := range []string{"2x4w", "4x2w", "8x1w"} {
		c := stats.Mean(r.ContCritical[cfgName])
		o := stats.Mean(r.ContOther[cfgName])
		share := 0.0
		if c+o > 0 {
			share = c / (c + o)
		}
		fmt.Fprintf(w, "%-6s %10.2f %10.2f %9.0f%%\n", cfgName, c, o, share*100)
	}
	fmt.Fprintln(w, "Figure 6b: critical forwarding events per 1000 instructions by cause")
	fmt.Fprintf(w, "%-6s %10s %10s %10s\n", "cfg", "loadbal", "dyadic", "other")
	for _, cfgName := range []string{"2x4w", "4x2w", "8x1w"} {
		fmt.Fprintf(w, "%-6s %10.2f %10.2f %10.2f\n", cfgName,
			stats.Mean(r.FwdLoadBal[cfgName]), stats.Mean(r.FwdDyadic[cfgName]),
			stats.Mean(r.FwdOther[cfgName]))
	}
}

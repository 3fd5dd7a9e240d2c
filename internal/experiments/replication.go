package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/stats"
)

// ReplicationResult tests footnote 4 of the paper: "Instruction
// replication, which has been advocated for statically-scheduled
// clustered machines, therefore does not appear to be necessary for
// dynamic machines." We extend the idealized list scheduler with
// replication and measure what it actually buys per configuration.
type ReplicationResult struct {
	Table *stats.Table // per benchmark: 8x1w normalized CPI without/with replication
	// AvgGain[i] is the average normalized-CPI reduction replication
	// achieves on clusterCounts[i].
	AvgGain []float64
	// ReplicasPerKiloInst is the replica density on the 8x1w schedules.
	ReplicasPerKiloInst float64
}

// Replication runs the idealized study with and without replication.
func Replication(opts Options) (*ReplicationResult, error) {
	opts = opts.WithDefaults()
	t := &stats.Table{Title: "Footnote 4: instruction replication in idealized schedules (8x1w normalized CPI)",
		Columns: []string{"plain", "replicated"}}
	gains := make([]float64, len(clusterCounts))
	var replicas, insts float64
	type out struct {
		row      [2]float64
		gains    []float64
		replicas float64
		insts    float64
	}
	outs, err := parBench(opts, func(bench string) (out, error) {
		var o out
		o.gains = make([]float64, len(clusterCounts))
		// The monolithic baseline and plain clustered schedules resolve
		// to the same schedule-cache keys Figure 2 produces, so a shared
		// engine replays none of them here; the replicated schedules are
		// cached alongside them under their own keys.
		specs := oracleSweepSpecs(opts.Fwd)
		for _, k := range clusterCounts {
			specs = append(specs, schedSpec{clusters: k, fwd: opts.Fwd, pri: PriOracle, replicate: true})
		}
		ss, err := idealSchedules(opts, bench, StackDepBased, false, specs)
		if err != nil {
			return o, err
		}
		mono := float64(ss[0].Makespan)
		for i, k := range clusterCounts {
			plain, repl := ss[1+i], ss[1+len(clusterCounts)+i]
			p := float64(plain.Makespan) / mono
			r := float64(repl.Makespan) / mono
			o.gains[i] = p - r
			if k == 8 {
				o.row = [2]float64{p, r}
				o.replicas = float64(repl.Replicas)
				o.insts = float64(plain.Insts)
			}
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	for i, bench := range opts.Benchmarks {
		o := outs[i]
		t.AddRow(bench, o.row[0], o.row[1])
		for j, g := range o.gains {
			gains[j] += g
		}
		replicas += o.replicas
		insts += o.insts
	}
	t.AddRow("AVE", t.ColumnMeans()...)
	r := &ReplicationResult{Table: t, AvgGain: make([]float64, len(gains))}
	for i := range gains {
		r.AvgGain[i] = gains[i] / float64(len(opts.Benchmarks))
	}
	if insts > 0 {
		r.ReplicasPerKiloInst = replicas / insts * 1000
	}
	return r, nil
}

// Render writes the replication study.
func (r *ReplicationResult) Render(w io.Writer) {
	r.Table.Render(w)
	fmt.Fprintf(w, "average normalized-CPI gain from replication: 2x4w %.4f, 4x2w %.4f, 8x1w %.4f\n",
		r.AvgGain[0], r.AvgGain[1], r.AvgGain[2])
	fmt.Fprintf(w, "replicas per 1000 instructions (8x1w): %.2f\n", r.ReplicasPerKiloInst)
}

package experiments

import (
	"fmt"
	"io"
	"strings"

	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/stats"
	"clustersim/internal/steer"
)

// Detector names the online criticality detector that trains a stack's
// predictors.
type Detector string

const (
	// DetectorGraph is the idealized epoch-graph detector (the default).
	DetectorGraph Detector = ""
	// DetectorToken is the hardware-style token-passing detector the
	// paper's conclusion calls for.
	DetectorToken Detector = "token"
)

// Ablation perturbs a policy stack along one of the paper's sensitivity
// axes. Its zero value is the stack as is. Drivers never build machines
// themselves: every sweep point is an Ablation submitted through
// simVariants, so it is an engine job cached under its own key.
type Ablation struct {
	// StallThreshold is stall-over-steer's LoC fraction (Section 5); 0
	// means steer.DefaultStallThreshold. Stall-over-steer stack only.
	StallThreshold float64
	// Window is the per-cluster scheduling window; 0 means the
	// configuration's even partition.
	Window int
	// BypassLimit caps global values broadcast per cluster per cycle
	// (Section 2.1); 0 means unlimited.
	BypassLimit int
	// PredictorBits sizes the binary and LoC tables at 2^bits entries; 0
	// means predictor.DefaultBits.
	PredictorBits uint
	// GroupSteer steers each dispatch group against start-of-cycle state
	// (Section 8's simpler circuit).
	GroupSteer bool
	// ReadyBalance balances load on per-cluster data-ready counts
	// instead of occupancy (the future-work study). Proactive stack only.
	ReadyBalance bool
	// Detector selects the criticality detector.
	Detector Detector
	// LoCSeed tags the LoC predictor's random stream; "" means "loc",
	// the stacks' own tag. Not for the focused stack, which has no LoC
	// predictor.
	LoCSeed string
}

// canonical zeroes every axis that equals the stack's own setting on a
// machine of that many clusters, so a perturbation that reproduces the
// stack keys as the stack: stall-sweep's 30% column is Figure 14's "s"
// run.
func (a Ablation) canonical(clusters int) Ablation {
	if a.StallThreshold == steer.DefaultStallThreshold {
		a.StallThreshold = 0
	}
	if a.Window == machine.NewConfig(clusters).WindowPerCluster {
		a.Window = 0
	}
	if a.PredictorBits == predictor.DefaultBits {
		a.PredictorBits = 0
	}
	if a.LoCSeed == "loc" {
		a.LoCSeed = ""
	}
	return a
}

// String is the ablation's key form: its non-zero axes, comma-joined
// ("" for the zero value).
func (a Ablation) String() string {
	var parts []string
	add := func(format string, v any) { parts = append(parts, fmt.Sprintf(format, v)) }
	if a.StallThreshold != 0 {
		add("thr=%g", a.StallThreshold)
	}
	if a.Window != 0 {
		add("win=%d", a.Window)
	}
	if a.BypassLimit != 0 {
		add("bypass=%d", a.BypassLimit)
	}
	if a.PredictorBits != 0 {
		add("pbits=%d", a.PredictorBits)
	}
	if a.GroupSteer {
		parts = append(parts, "group")
	}
	if a.ReadyBalance {
		parts = append(parts, "readybalance")
	}
	if a.Detector != DetectorGraph {
		add("det=%s", a.Detector)
	}
	if a.LoCSeed != "" {
		add("locseed=%s", a.LoCSeed)
	}
	return strings.Join(parts, ",")
}

// check rejects axes the criticality stack cannot apply.
func (a Ablation) check(stack Stack, trackExact bool) error {
	switch {
	case a.StallThreshold != 0 && stack != StackStall:
		return fmt.Errorf("experiments: stall threshold ablation on the %s stack", stack)
	case a.ReadyBalance && stack != StackProactive:
		return fmt.Errorf("experiments: readiness balancing ablation on the %s stack", stack)
	case a.LoCSeed != "" && stack == StackFocused:
		return fmt.Errorf("experiments: LoC seed ablation on the %s stack", stack)
	case a.Detector != DetectorGraph && a.Detector != DetectorToken:
		return fmt.Errorf("experiments: unknown detector %q", a.Detector)
	case a.Detector == DetectorToken && trackExact:
		return fmt.Errorf("experiments: the token detector cannot track exact criticality")
	}
	return nil
}

// ablationSweep runs, per benchmark, the 1x8w LoC-scheduled baseline
// plus one 8x1w run of stack per ablation as a single fused batch, and
// returns each benchmark's CPIs normalized to the baseline.
func ablationSweep(opts Options, stack Stack, abs []Ablation) ([][]float64, error) {
	return parBench(opts, func(bench string) ([]float64, error) {
		vs := []simVariant{{clusters: 1, stack: StackLoC}}
		for _, ab := range abs {
			vs = append(vs, simVariant{clusters: 8, stack: stack, ab: ab})
		}
		arts, err := simVariants(opts, bench, vs, false)
		if err != nil {
			return nil, err
		}
		base := arts[0].Res.CPI()
		vals := make([]float64, len(abs))
		for i, a := range arts[1:] {
			vals[i] = a.Res.CPI() / base
		}
		return vals, nil
	})
}

// sweepTable tabulates per-benchmark sweep rows plus their average.
func sweepTable(title string, cols []string, opts Options, rows [][]float64) *stats.Table {
	t := &stats.Table{Title: title, Columns: cols}
	for i, bench := range opts.Benchmarks {
		t.AddRow(bench, rows[i]...)
	}
	t.AddRow("AVE", t.ColumnMeans()...)
	return t
}

// pairTable tabulates a two-column comparison and returns it with the
// mean per-benchmark excess of the second column over the first.
func pairTable(title string, cols []string, opts Options, rows [][]float64) (*stats.Table, float64) {
	deltas := make([]float64, len(rows))
	for i, row := range rows {
		deltas[i] = row[1] - row[0]
	}
	return sweepTable(title, cols, opts, rows), stats.Mean(deltas)
}

// FwdSweepResult reproduces the paper's Section 2.1 sensitivity note
// (footnote 3): the idealized study re-run across inter-cluster
// forwarding latencies of 1–4 cycles.
type FwdSweepResult struct {
	// Avg[lat][i] is the average normalized idealized CPI at latency
	// lat for clusterCounts[i].
	Avg  map[int][]float64
	Lats []int
}

// FwdSweep runs the idealized study at several forwarding latencies.
func FwdSweep(opts Options) (*FwdSweepResult, error) {
	opts = opts.WithDefaults()
	r := &FwdSweepResult{Avg: map[int][]float64{}, Lats: []int{1, 2, 4}}
	// rows[bench][latIdx][clusterIdx]
	rows, err := parBench(opts, func(bench string) ([][]float64, error) {
		// A 1-cluster schedule never forwards between clusters, so the
		// monolithic baseline is the same at every latency: take it once,
		// at opts.Fwd, where Figure 2 cached it.
		base, err := idealSchedules(opts, bench, StackDepBased, false, oracleSweepSpecs(opts.Fwd)[:1])
		if err != nil {
			return nil, err
		}
		out := make([][]float64, len(r.Lats))
		for li, lat := range r.Lats {
			out[li] = make([]float64, len(clusterCounts))
			// Vary the clustered schedules' latency through the job key,
			// so the lat == opts.Fwd row shares Figure 2's cached
			// schedules; every latency's harvest is Figure 2's run, which
			// the engine keys without Fwd.
			latOpts := opts
			latOpts.Fwd = lat
			ss, err := idealSchedules(latOpts, bench, StackDepBased, false, oracleSweepSpecs(lat)[1:])
			if err != nil {
				return nil, err
			}
			for i := range clusterCounts {
				out[li][i] = float64(ss[i].Makespan) / float64(base[0].Makespan)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for li, lat := range r.Lats {
		avg := make([]float64, len(clusterCounts))
		for _, row := range rows {
			for i := range avg {
				avg[i] += row[li][i]
			}
		}
		for i := range avg {
			avg[i] /= float64(len(opts.Benchmarks))
		}
		r.Avg[lat] = avg
	}
	return r, nil
}

// Render writes the latency sweep.
func (r *FwdSweepResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Section 2.1 (footnote 3): idealized study across forwarding latencies")
	fmt.Fprintf(w, "%-4s %8s %8s %8s\n", "fwd", "2x4w", "4x2w", "8x1w")
	for _, lat := range r.Lats {
		a := r.Avg[lat]
		fmt.Fprintf(w, "%-4d %8.3f %8.3f %8.3f\n", lat, a[0], a[1], a[2])
	}
}

// StallSweepResult is the stall-over-steer threshold ablation: the paper
// chose its 30% LoC threshold empirically (Section 5); this sweep shows
// the sensitivity on the 8x1w machine.
type StallSweepResult struct {
	Thresholds []float64
	Table      *stats.Table // rows: benchmarks, cols: thresholds
}

// StallSweep measures 8x1w normalized CPI per stall threshold. The 30%
// column is the stall-over-steer stack itself, so it shares Figure 14's
// 8x1w "s" runs.
func StallSweep(opts Options) (*StallSweepResult, error) {
	opts = opts.WithDefaults()
	thresholds := []float64{0.15, 0.30, 0.50}
	cols := make([]string, len(thresholds))
	abs := make([]Ablation, len(thresholds))
	for i, t := range thresholds {
		cols[i] = fmt.Sprintf("thr=%.2f", t)
		abs[i] = Ablation{StallThreshold: t}
	}
	rows, err := ablationSweep(opts, StackStall, abs)
	if err != nil {
		return nil, err
	}
	tbl := sweepTable("Stall-over-steer threshold ablation (8x1w normalized CPI)", cols, opts, rows)
	return &StallSweepResult{Thresholds: thresholds, Table: tbl}, nil
}

// Render writes the threshold ablation.
func (r *StallSweepResult) Render(w io.Writer) { r.Table.Render(w) }

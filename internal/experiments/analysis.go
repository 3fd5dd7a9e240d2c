package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/stats"
)

// SlackStudyResult quantifies Section 4's argument for LoC over slack:
// global slack is plentiful in aggregate (so non-critical dataflow
// tolerates clustering) but varies so much per static instruction that it
// resists the static summary a predictor needs.
type SlackStudyResult struct {
	Table *stats.Table
	// Averages across benchmarks.
	MeanZeroFrac  float64 // dynamic instructions with zero slack
	MeanGEFwdFrac float64 // instructions tolerating one forwarding hop
	MeanStaticSD  float64 // per-PC slack standard deviation
	MeanBranchBi  float64 // mispredicted branches with zero slack
}

// SlackStudy measures slack distributions on the 4x2w focused machine.
func SlackStudy(opts Options) (*SlackStudyResult, error) {
	opts = opts.WithDefaults()
	t := &stats.Table{Title: "Slack analysis (4x2w, focused): why LoC beats slack as a static metric",
		Columns: []string{"mean", "zero-frac", ">=fwd", ">=10", "perPC-sd", "misbr-zero"}}
	rows, err := parBench(opts, func(bench string) ([]float64, error) {
		cs, _, err := analysis(opts, bench, slackClusters, StackFocused)
		if err != nil {
			return nil, err
		}
		s := *cs.Slack
		return []float64{s.MeanSlack, s.ZeroFrac, s.GEFwdFrac, s.GE10Frac,
			s.StaticStdDev, s.BimodalBranchFrac}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, bench := range opts.Benchmarks {
		t.AddRow(bench, rows[i]...)
	}
	means := t.ColumnMeans()
	t.AddRow("AVE", means...)
	return &SlackStudyResult{Table: t, MeanZeroFrac: means[1],
		MeanGEFwdFrac: means[2], MeanStaticSD: means[4], MeanBranchBi: means[5]}, nil
}

// Render writes the slack table.
func (r *SlackStudyResult) Render(w io.Writer) { r.Table.Render(w) }

// DetectorCompareResult contrasts the idealized epoch-graph detector with
// the hardware-style token-passing detector the paper's conclusion calls
// for, both driving the stall-over-steer policy on the 8x1w machine.
type DetectorCompareResult struct {
	Table *stats.Table // per benchmark: normalized CPI under each detector
	// TokenPenaltyDelta is the mean extra normalized CPI the token
	// detector costs relative to the graph detector.
	TokenPenaltyDelta float64
}

// DetectorCompare runs both detectors. The graph column is the
// stall-over-steer stack itself, so it shares Figure 14's 8x1w "s" runs.
func DetectorCompare(opts Options) (*DetectorCompareResult, error) {
	opts = opts.WithDefaults()
	rows, err := ablationSweep(opts, StackStall, []Ablation{
		{},
		{Detector: DetectorToken, LoCSeed: "tok-loc"},
	})
	if err != nil {
		return nil, err
	}
	t, delta := pairTable("Criticality detectors: epoch-graph vs token-passing (8x1w, stall-over-steer)",
		[]string{"graph", "token"}, opts, rows)
	return &DetectorCompareResult{Table: t, TokenPenaltyDelta: delta}, nil
}

// Render writes the comparison.
func (r *DetectorCompareResult) Render(w io.Writer) {
	r.Table.Render(w)
	fmt.Fprintf(w, "token detector costs %+.3f normalized CPI on average vs the graph detector\n",
		r.TokenPenaltyDelta)
}

// WindowSweepResult is the window-partition ablation: how much of the
// 8x1w penalty is scheduling-window pressure (the mechanism behind
// Figure 9's load-balance spreading).
type WindowSweepResult struct {
	Windows []int
	Avg     []float64 // normalized CPI per window size
}

// WindowSweep runs the 8-cluster machine with progressively larger
// per-cluster windows under stall-over-steer.
func WindowSweep(opts Options) (*WindowSweepResult, error) {
	opts = opts.WithDefaults()
	r := &WindowSweepResult{Windows: []int{8, 16, 32}}
	abs := make([]Ablation, len(r.Windows))
	for i, win := range r.Windows {
		abs[i] = Ablation{Window: win, LoCSeed: "win-loc"}
	}
	rows, err := ablationSweep(opts, StackStall, abs)
	if err != nil {
		return nil, err
	}
	r.Avg = averageRows(rows, len(r.Windows), len(opts.Benchmarks))
	return r, nil
}

// averageRows averages per-benchmark value vectors element-wise.
func averageRows(rows [][]float64, width, benches int) []float64 {
	avg := make([]float64, width)
	for _, row := range rows {
		for i := range avg {
			avg[i] += row[i]
		}
	}
	for i := range avg {
		avg[i] /= float64(benches)
	}
	return avg
}

// Render writes the window ablation.
func (r *WindowSweepResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Window-partition ablation (8 clusters, stall-over-steer; avg normalized CPI)")
	for i, win := range r.Windows {
		fmt.Fprintf(w, "window/cluster=%-3d %8.3f\n", win, r.Avg[i])
	}
}

// BandwidthSweepResult validates the paper's unlimited-bypass-bandwidth
// assumption: with ~0.2 global values per instruction, even one or two
// broadcasts per cluster per cycle should be close to unlimited.
type BandwidthSweepResult struct {
	Limits []int // 0 = unlimited
	Avg    []float64
}

// BandwidthSweep runs the 8x1w final policy stack across bypass limits.
func BandwidthSweep(opts Options) (*BandwidthSweepResult, error) {
	opts = opts.WithDefaults()
	r := &BandwidthSweepResult{Limits: []int{0, 2, 1}}
	abs := make([]Ablation, len(r.Limits))
	for i, lim := range r.Limits {
		abs[i] = Ablation{BypassLimit: lim, LoCSeed: "bw-loc"}
	}
	rows, err := ablationSweep(opts, StackStall, abs)
	if err != nil {
		return nil, err
	}
	r.Avg = averageRows(rows, len(r.Limits), len(opts.Benchmarks))
	return r, nil
}

// Render writes the bandwidth ablation.
func (r *BandwidthSweepResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Global bypass bandwidth ablation (8x1w, stall-over-steer; avg normalized CPI)")
	for i, lim := range r.Limits {
		name := fmt.Sprintf("%d/cluster/cycle", lim)
		if lim == 0 {
			name = "unlimited"
		}
		fmt.Fprintf(w, "%-18s %8.3f\n", name, r.Avg[i])
	}
}

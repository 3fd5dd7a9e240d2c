package experiments

import (
	"testing"

	"clustersim/internal/engine"
)

// TestStallSweepHonoursEpochLen is the regression test for sweeps that
// dropped Options.EpochLen: at a non-default epoch, stall-sweep's 30%
// column must equal CPI(s, 8x1w)/CPI(l, 1x8w) as the engine computes it
// for the stacks themselves, and must be served by those very runs.
func TestStallSweepHonoursEpochLen(t *testing.T) {
	opts := Options{
		Insts:      6_000,
		Benchmarks: []string{"gzip", "vpr", "mcf"},
		EpochLen:   2048,
		Engine:     engine.New(engine.Config{}),
	}.WithDefaults()
	want := make([]float64, len(opts.Benchmarks))
	for i, bench := range opts.Benchmarks {
		s, err := sim(opts, bench, 8, StackStall, false)
		if err != nil {
			t.Fatal(err)
		}
		l, err := sim(opts, bench, 1, StackLoC, false)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s.Res.CPI() / l.Res.CPI()
	}
	before := opts.Engine.Summary().SimMisses
	r, err := StallSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, thr := range r.Thresholds {
		if thr == 0.30 {
			col = i
		}
	}
	for i, bench := range opts.Benchmarks {
		if got := r.Table.Value(i, col); got != want[i] {
			t.Errorf("%s: thr=0.30 column %v, want CPI(s,8)/CPI(l,1) = %v", bench, got, want[i])
		}
	}
	// Only the two off-default thresholds simulate; the 30% column and
	// the baseline are the stack runs above.
	if got, wantMiss := opts.Engine.Summary().SimMisses-before, int64(2*len(opts.Benchmarks)); got != wantMiss {
		t.Errorf("stall sweep simulated %d runs, want %d", got, wantMiss)
	}
}

func TestAblationCanonicalKeys(t *testing.T) {
	for _, tc := range []struct {
		ab       Ablation
		clusters int
		want     string
	}{
		{Ablation{}, 8, ""},
		{Ablation{StallThreshold: 0.30, LoCSeed: "loc", PredictorBits: 16, Window: 16}, 8, ""},
		{Ablation{Window: 16}, 4, "win=16"},
		{Ablation{StallThreshold: 0.15}, 8, "thr=0.15"},
		{Ablation{BypassLimit: 2, LoCSeed: "bw-loc"}, 8, "bypass=2,locseed=bw-loc"},
		{Ablation{PredictorBits: 6, GroupSteer: true}, 8, "pbits=6,group"},
		{Ablation{Detector: DetectorToken, LoCSeed: "tok-loc"}, 8, "det=token,locseed=tok-loc"},
		{Ablation{ReadyBalance: true}, 8, "readybalance"},
	} {
		if got := tc.ab.canonical(tc.clusters).String(); got != tc.want {
			t.Errorf("%+v on %d clusters keys as %q, want %q", tc.ab, tc.clusters, got, tc.want)
		}
	}
}

func TestAblationRejectsInapplicableAxes(t *testing.T) {
	opts := Options{Fwd: 2}
	for _, tc := range []struct {
		stack      Stack
		ab         Ablation
		trackExact bool
	}{
		{StackDepBased, Ablation{Window: 8}, false},
		{StackLoC, Ablation{StallThreshold: 0.5}, false},
		{StackStall, Ablation{ReadyBalance: true}, false},
		{StackFocused, Ablation{LoCSeed: "x"}, false},
		{StackStall, Ablation{Detector: "bogus"}, false},
		{StackStall, Ablation{Detector: DetectorToken}, true},
	} {
		if _, _, err := buildStack(opts, "gzip", 8, tc.stack, tc.ab, tc.trackExact); err == nil {
			t.Errorf("buildStack accepted %q on the %s stack (exact=%v)", tc.ab, tc.stack, tc.trackExact)
		}
	}
}

package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// TestGoldenFigure4 pins exact headline values at a small, fixed scale.
// Every layer of the stack is deterministic (own PRNG, ordered
// reductions), so these values must reproduce bit-for-bit; a change here
// means simulator or policy behavior changed and EXPERIMENTS.md needs
// regenerating. Update the constants deliberately when that happens.
func TestGoldenFigure4(t *testing.T) {
	opts := Options{Insts: 20_000, Benchmarks: []string{"gzip", "vpr", "mcf"}}
	r, err := Figure4(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%.6f %.6f %.6f",
		r.Table.Value(0, 0), r.Table.Value(1, 1), r.Table.Value(2, 2))
	want := golden(t, "figure4", got)
	if got != want {
		t.Errorf("Figure 4 golden mismatch:\n got %s\nwant %s\n(behavior changed: regenerate EXPERIMENTS.md and update the golden)", got, want)
	}
}

func TestGoldenFigure2(t *testing.T) {
	opts := Options{Insts: 20_000, Benchmarks: []string{"gzip", "vpr", "mcf"}}
	r, err := Figure2(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%.6f %.6f %.6f",
		r.Table.Value(0, 2), r.Table.Value(1, 2), r.Table.Value(2, 2))
	want := golden(t, "figure2", got)
	if got != want {
		t.Errorf("Figure 2 golden mismatch:\n got %s\nwant %s", got, want)
	}
}

// TestGoldenLoCOracle pins the Section 4 priority-knowledge study. The
// values were captured from the pre-engine direct listsched.Run path, so
// this gate also pins the fused ScheduleVariants + schedule-cache route
// to the original driver arithmetic.
func TestGoldenLoCOracle(t *testing.T) {
	opts := Options{Insts: 20_000, Benchmarks: []string{"gzip", "vpr", "mcf"}}
	r, err := LoCOracle(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%.6f %.6f %.6f %.6f %.6f",
		r.Loss[PriOracle][1], r.Loss[PriOracle][2], r.Loss[PriLoC16][2],
		r.Loss[PriLoCUnlimited][2], r.Loss[PriBinary][2])
	want := golden(t, "loc-oracle", got)
	if got != want {
		t.Errorf("LoC-oracle golden mismatch:\n got %s\nwant %s\n(scheduler or priority behavior changed: update deliberately)", got, want)
	}
}

// TestGoldenICostMatrix pins the InteractionMatrix output of the fused
// replay on the gcc/vpr goldens: the legacy fwd/contention pair plus a
// cross-component pairwise cell, in raw cycles. Any drift in the replay
// arithmetic (or the simulator behind it) shows up here exactly.
func TestGoldenICostMatrix(t *testing.T) {
	opts := Options{Insts: 20_000, Benchmarks: []string{"vpr", "gcc"}}
	r, err := ICost(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%d %d %d %d %d %d",
		r.TotalFwd, r.TotalCont, r.TotalBoth, r.TotalICost,
		r.Pair[2][3], // mem × br-mispredict interaction
		r.Pair[0][2]) // fwd × mem interaction
	want := golden(t, "icost-matrix", got)
	if got != want {
		t.Errorf("ICost matrix golden mismatch:\n got %s\nwant %s\n(replay or simulator behavior changed: update deliberately)", got, want)
	}
}

// goldenValues holds the pinned outputs. Keeping them in code (rather
// than testdata files) makes behavior changes visible in review.
var goldenValues = map[string]string{
	"figure4":      "1.079224 1.068801 1.083907",
	"figure2":      "1.019532 1.046488 1.000978",
	"loc-oracle":   "0.002831 0.022332 0.050405 0.050405 0.057492",
	"icost-matrix": "1494 4425 5868 -51 -2458 -8",
}

// golden returns the pinned value, or — when running with
// -run TestGolden -v after an intentional change — prints the new value
// to splice into goldenValues.
func golden(t *testing.T, key, got string) string {
	want, ok := goldenValues[key]
	if !ok {
		t.Fatalf("no golden value for %q; measured %q", key, got)
	}
	if want != got {
		t.Logf("measured %q = %q", key, got)
	}
	return want
}

// TestGoldenDeterminism double-checks that two identical invocations of a
// parallel driver agree exactly (the property the goldens rely on).
func TestGoldenDeterminism(t *testing.T) {
	opts := Options{Insts: 10_000, Benchmarks: []string{"vpr", "gzip"}}
	a, err := Figure4(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure4(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Table.Rows(); i++ {
		for c := 0; c < 3; c++ {
			if math.Abs(a.Table.Value(i, c)-b.Table.Value(i, c)) != 0 {
				t.Fatalf("row %d col %d differs between identical runs", i, c)
			}
		}
	}
}

// TestGoldenFutureWork pins the SHA-256 of the future-work study's
// rendered output. The digest was generated while the study still built
// its machines outside the engine, so a match proves the ablation-routed
// driver renders the same bytes (the registry's sweeps are pinned the
// same way by the server package's TestSweepGoldens).
func TestGoldenFutureWork(t *testing.T) {
	r, err := FutureWork(Options{Insts: 20_000, Benchmarks: []string{"gzip", "vpr", "mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	sum := sha256.Sum256(buf.Bytes())
	const want = "082b815cf771754f86625ebbb168fa5145fd0a02d194dbfb5d8eacb0d0971388"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("future-work sha256 %s, want %s; output:\n%s", got, want, buf.String())
	}
}

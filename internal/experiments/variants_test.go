package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/machine"
)

// fig4Grid is the geometry sweep Figure 4 batches per benchmark: the
// monolithic baseline plus the paper's clustered configurations.
func fig4Grid() []int { return append([]int{1}, clusterCounts...) }

// TestFigure4VariantBatchingWarmCache pins the engine-side contract of
// the fused sweep: the first Figure 4 pass computes every (bench,
// geometry) cell through one SimulateVariants batch per benchmark, and a
// second pass on the same engine is served entirely from cache — zero
// new simulations, byte-identical output.
func TestFigure4VariantBatchingWarmCache(t *testing.T) {
	eng := engine.New(engine.Config{Workers: runtime.NumCPU()})
	opts := Options{
		Insts:      8_000,
		Benchmarks: []string{"gzip", "vpr", "mcf"},
		Engine:     eng,
	}
	render := func() string {
		r, err := Figure4(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		return buf.String()
	}

	first := render()
	s1 := eng.Summary()
	wantCells := int64(len(opts.Benchmarks) * len(fig4Grid()))
	if s1.SimMisses != wantCells {
		t.Errorf("cold pass simulated %d cells, want %d (one per bench×geometry)",
			s1.SimMisses, wantCells)
	}

	second := render()
	s2 := eng.Summary()
	if s2.SimMisses != s1.SimMisses {
		t.Errorf("warm pass recomputed %d cells, want 0", s2.SimMisses-s1.SimMisses)
	}
	if got := s2.SimHits - s1.SimHits; got < wantCells {
		t.Errorf("warm pass served %d cache hits, want >= %d", got, wantCells)
	}
	if first != second {
		t.Errorf("warm pass output differs from cold pass:\n--- cold\n%s\n--- warm\n%s", first, second)
	}
}

// TestVariantBatchPartialWarm checks the mixed case: when some of a
// batch's geometries are already cached (here, from a solo submission),
// SimVariants computes only the misses and the results are identical to
// fully-solo runs.
func TestVariantBatchPartialWarm(t *testing.T) {
	grid := fig4Grid()
	mkOpts := func() Options {
		return Options{
			Insts:      6_000,
			Benchmarks: []string{"gzip"},
			Engine:     engine.New(engine.Config{Workers: runtime.NumCPU()}),
		}
	}

	// Reference: every cell simulated solo.
	solo := mkOpts()
	var want []machine.Result
	for _, k := range grid {
		a, err := sim(solo, "gzip", k, StackFocused, false)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, a.Res)
	}

	// Warm one cell solo, then batch the full grid on the same engine.
	opts := mkOpts()
	if _, err := sim(opts, "gzip", grid[2], StackFocused, false); err != nil {
		t.Fatal(err)
	}
	missesBefore := opts.Engine.Summary().SimMisses
	arts, err := simVariants(opts, "gzip", stackVariants(StackFocused, grid...), false)
	if err != nil {
		t.Fatal(err)
	}
	s := opts.Engine.Summary()
	if got, wantMiss := s.SimMisses-missesBefore, int64(len(grid)-1); got != wantMiss {
		t.Errorf("batch simulated %d cells, want %d (one was pre-warmed)", got, wantMiss)
	}
	for i := range arts {
		if !reflect.DeepEqual(arts[i].Res, want[i]) {
			t.Errorf("geometry %dx: batched result differs from solo:\nbatch: %+v\n solo: %+v",
				grid[i], arts[i].Res, want[i])
		}
	}
}

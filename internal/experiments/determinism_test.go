package experiments

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"clustersim/internal/engine"
)

// renderer is the surface every driver result shares; the determinism
// suite compares rendered bytes, so any nondeterminism in values,
// ordering or aggregation shows up.
type renderer interface{ Render(w io.Writer) }

// determinismDrivers lists every figure driver the suite pins. Each
// entry must be a pure function of Options.
var determinismDrivers = []struct {
	name string
	run  func(Options) (renderer, error)
}{
	{"figure2", func(o Options) (renderer, error) { return Figure2(o) }},
	{"figure4", func(o Options) (renderer, error) { return Figure4(o) }},
	{"figure5", func(o Options) (renderer, error) { return Figure5(o) }},
	{"figure8", func(o Options) (renderer, error) { return Figure8(o) }},
	{"figure14", func(o Options) (renderer, error) { return Figure14(o) }},
	{"figure15", func(o Options) (renderer, error) { return Figure15(o) }},
	{"loc-oracle", func(o Options) (renderer, error) { return LoCOracle(o) }},
	{"consumers", func(o Options) (renderer, error) { return Consumers(o) }},
}

// determinismOpts keeps the suite fast while exercising multi-benchmark
// parallelism in every driver.
func determinismOpts(eng *engine.Engine) Options {
	return Options{
		Insts:      8_000,
		Benchmarks: []string{"gzip", "vpr", "mcf"},
		Engine:     eng,
	}
}

// renderDriver runs one driver on a fresh engine with the given worker
// count and returns the rendered output.
func renderDriver(t *testing.T, name string, run func(Options) (renderer, error), workers int) string {
	t.Helper()
	eng := engine.New(engine.Config{Workers: workers})
	r, err := run(determinismOpts(eng))
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", name, workers, err)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s rendered nothing", name)
	}
	return buf.String()
}

// TestDeterminismAcrossWorkers pins the engine's core promise: every
// figure driver renders byte-identical output serially (-j 1) and fully
// parallel (-j NumCPU). Each invocation uses a fresh engine so nothing
// is served from cache — the parallel run really re-executes the jobs.
func TestDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism suite runs every driver several times")
	}
	for _, d := range determinismDrivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			serial := renderDriver(t, d.name, d.run, 1)
			parallel := renderDriver(t, d.name, d.run, runtime.NumCPU())
			if serial != parallel {
				t.Errorf("serial and parallel runs differ:\n--- workers=1\n%s\n--- workers=%d\n%s",
					serial, runtime.NumCPU(), parallel)
			}
		})
	}
}

// TestDeterminismAcrossGOMAXPROCS re-runs a representative driver pair
// under two GOMAXPROCS settings: goroutine scheduling must not leak into
// results.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism suite runs every driver several times")
	}
	drivers := determinismDrivers[:2] // figure2 (list scheduling), figure4 (full stacks)
	outs := make(map[string][]string)
	for _, procs := range []int{1, 2} {
		old := runtime.GOMAXPROCS(procs)
		for _, d := range drivers {
			outs[d.name] = append(outs[d.name], renderDriver(t, d.name, d.run, 4))
		}
		runtime.GOMAXPROCS(old)
	}
	for name, o := range outs {
		if o[0] != o[1] {
			t.Errorf("%s differs between GOMAXPROCS=1 and GOMAXPROCS=2", name)
		}
	}
}

// TestDeterminismAcrossReplayWorkers extends the byte-identity suite to
// the intra-job parallel replay layer: every figure must render
// identically whether variant batches replay serially, on 2 workers, or
// on NumCPU workers. Fresh engines per run, so nothing is served from
// cache — the parallel fan-out really executes.
func TestDeterminismAcrossReplayWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism suite runs every driver several times")
	}
	render := func(name string, run func(Options) (renderer, error), replay int) string {
		t.Helper()
		eng := engine.New(engine.Config{Workers: 2, ReplayWorkers: replay})
		o := determinismOpts(eng)
		o.ReplayWorkers = replay
		r, err := run(o)
		if err != nil {
			t.Fatalf("%s (replay=%d): %v", name, replay, err)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		return buf.String()
	}
	// figure4 and figure14 run the full stack sweeps through
	// simVariants — the batched path the fan-out parallelizes.
	for _, d := range determinismDrivers {
		if d.name != "figure4" && d.name != "figure14" {
			continue
		}
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			serial := render(d.name, d.run, 1)
			for _, replay := range []int{2, runtime.NumCPU() + 1} {
				if got := render(d.name, d.run, replay); got != serial {
					t.Errorf("replay workers %d render differs from serial:\n--- serial\n%s\n--- replay=%d\n%s",
						replay, serial, replay, got)
				}
			}
		})
	}
}

// TestSharedEngineCacheHits is the cross-figure dedup acceptance check:
// running the drivers on ONE engine must serve some simulations from
// cache (Figures 4, 5 and 14 share focused-stack runs; Figure 8 and
// Consumers share exact-tracked runs) while rendering exactly what
// fresh engines render.
func TestSharedEngineCacheHits(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism suite runs every driver several times")
	}
	shared := engine.New(engine.Config{Workers: runtime.NumCPU()})
	for _, d := range determinismDrivers {
		r, err := d.run(determinismOpts(shared))
		if err != nil {
			t.Fatalf("%s on shared engine: %v", d.name, err)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		fresh := renderDriver(t, d.name, d.run, runtime.NumCPU())
		if buf.String() != fresh {
			t.Errorf("%s: shared-engine output differs from fresh-engine output:\n--- shared\n%s\n--- fresh\n%s",
				d.name, buf.String(), fresh)
		}
	}
	s := shared.Summary()
	if s.SimHits == 0 {
		t.Errorf("shared engine reports no cache hits across the figure drivers (misses=%d)", s.SimMisses)
	}
	t.Logf("shared engine: %d sim hits, %d misses, hit rate %.2f", s.SimHits, s.SimMisses, s.HitRate())
}

// TestMemoryPressureDifferential renders the drivers that read cached
// analyses, schedule harvests and exact trackers on two engines: one
// whose memory budget (1 MiB) is far below the run's working set, and
// one without a budget. Under pressure, values drop out of the cache and
// are recomputed on their next request — a dropped harvest re-simulates
// its run — and none of that may change a byte.
func TestMemoryPressureDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("renders six drivers on two engines")
	}
	drivers := []struct {
		name string
		run  func(Options) (renderer, error)
	}{
		{"fig2", func(o Options) (renderer, error) { return Figure2(o) }},
		{"fig5", func(o Options) (renderer, error) { return Figure5(o) }},
		{"fig14", func(o Options) (renderer, error) { return Figure14(o) }},
		{"loc-oracle", func(o Options) (renderer, error) { return LoCOracle(o) }},
		{"replication", func(o Options) (renderer, error) { return Replication(o) }},
		{"consumers", func(o Options) (renderer, error) { return Consumers(o) }},
	}
	render := func(maxBytes int64) (string, engine.Summary) {
		eng := engine.New(engine.Config{Workers: 2, MaxCacheBytes: maxBytes})
		var buf bytes.Buffer
		for _, d := range drivers {
			r, err := d.run(determinismOpts(eng))
			if err != nil {
				t.Fatalf("%s (budget %d): %v", d.name, maxBytes, err)
			}
			r.Render(&buf)
		}
		return buf.String(), eng.Summary()
	}
	tiny, ts := render(1 << 20)
	unlimited, us := render(-1)
	if tiny != unlimited {
		t.Errorf("output differs under memory pressure:\n--- 1 MiB\n%s\n--- unlimited\n%s", tiny, unlimited)
	}
	if ts.Evictions == 0 {
		t.Error("the 1 MiB engine evicted nothing: the test exerts no pressure")
	}
	if ts.SimMisses <= us.SimMisses {
		t.Errorf("the 1 MiB engine simulated %d times, the unlimited one %d: no dropped value was recomputed",
			ts.SimMisses, us.SimMisses)
	}
	if us.Evictions != 0 {
		t.Errorf("the unlimited engine evicted %d entries", us.Evictions)
	}
	t.Logf("1 MiB: %d evictions, %d sim misses; unlimited: %d sim misses",
		ts.Evictions, ts.SimMisses, us.SimMisses)
}

// TestParBenchPanicSurfaces is the regression test for the old parBench
// implementation, whose unbuffered dispatch channel deadlocked every
// sibling worker when a job panicked. A panic must come back as an
// error, and the other benchmarks must still complete.
func TestParBenchPanicSurfaces(t *testing.T) {
	opts := Options{
		Insts:      1_000,
		Benchmarks: []string{"gzip", "vpr", "mcf", "gcc"},
		Engine:     engine.New(engine.Config{Workers: 2}),
	}
	var done atomic.Int64
	_, err := parBench(opts, func(bench string) (int, error) {
		if bench == "vpr" {
			panic("driver bug")
		}
		done.Add(1)
		return 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "driver bug") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if done.Load() != 3 {
		t.Errorf("%d sibling benchmarks completed, want 3", done.Load())
	}
}

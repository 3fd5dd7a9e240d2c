package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"clustersim/internal/durable"
	"clustersim/internal/engine"
	"clustersim/internal/faultinject"
)

// The chaos suite pins the robustness invariant from DESIGN.md: fault
// injection may cost retries, quarantines and recomputation, but it must
// never change a single rendered byte. Fault injection is process-wide,
// so these tests are deliberately sequential (no t.Parallel) — the Go
// test runner never overlaps a sequential test with any other test in
// the package.

// chaosOpts sizes the mini-sweep: small enough to run three times under
// fault injection, large enough to hit every artifact kind (traces,
// sims, analyses, schedules) across parallel workers.
func chaosOpts(eng *engine.Engine) Options {
	return Options{
		Insts:      6_000,
		Benchmarks: []string{"gzip", "mcf"},
		Engine:     eng,
	}
}

// chaosDrivers is the mini-sweep: Figure 2's list-scheduling limits,
// Figure 4's clustering stacks, and the engine-routed ablation sweeps,
// whose ablation-variant sims, replicated schedules and exact-tracker
// result entries must survive torn cache writes like every other entry.
var chaosDrivers = []struct {
	name string
	run  func(Options) (renderer, error)
}{
	{"figure2", func(o Options) (renderer, error) { return Figure2(o) }},
	{"figure4", func(o Options) (renderer, error) { return Figure4(o) }},
	{"stall-sweep", func(o Options) (renderer, error) { return StallSweep(o) }},
	{"window-sweep", func(o Options) (renderer, error) { return WindowSweep(o) }},
	{"bandwidth-sweep", func(o Options) (renderer, error) { return BandwidthSweep(o) }},
	{"predictor-sweep", func(o Options) (renderer, error) { return PredictorSweep(o) }},
	{"group-steer", func(o Options) (renderer, error) { return GroupSteer(o) }},
	{"detector-compare", func(o Options) (renderer, error) { return DetectorCompare(o) }},
	{"replication", func(o Options) (renderer, error) { return Replication(o) }},
	{"consumers", func(o Options) (renderer, error) { return Consumers(o) }},
}

// renderChaosSweep runs the mini-sweep on eng and returns the rendered
// bytes.
func renderChaosSweep(t *testing.T, eng *engine.Engine) string {
	t.Helper()
	var buf bytes.Buffer
	for _, d := range chaosDrivers {
		r, err := d.run(chaosOpts(eng))
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		r.Render(&buf)
	}
	return buf.String()
}

// saveQuarantine copies the cache's quarantine directory to the path in
// CLUSTERSIM_CHAOS_ARTIFACT_DIR so CI can upload it when a chaos test
// fails. No-op when the env var is unset or nothing was quarantined.
func saveQuarantine(t *testing.T, cacheDir string) {
	dest := os.Getenv("CLUSTERSIM_CHAOS_ARTIFACT_DIR")
	if dest == "" || !t.Failed() {
		return
	}
	src := filepath.Join(cacheDir, "quarantine")
	entries, err := os.ReadDir(src)
	if err != nil {
		return
	}
	sub := filepath.Join(dest, t.Name())
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Logf("saving quarantine: %v", err)
		return
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			continue
		}
		os.WriteFile(filepath.Join(sub, e.Name()), data, 0o644)
	}
	t.Logf("quarantined entries saved to %s", sub)
}

// TestChaosDifferential is the headline acceptance test: the mini-sweep
// under 5%% fault injection (I/O errors, truncations, latency, worker
// panics) renders byte-identical output to the fault-free run. A second
// chaos pass reuses the first pass's cache dir, so entries torn by
// injected short writes must be caught by the CRC frame, quarantined and
// recomputed — still without changing a byte.
func TestChaosDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs the mini-sweep three times")
	}
	clean := renderChaosSweep(t, engine.New(engine.Config{Workers: runtime.NumCPU()}))

	cacheDir := filepath.Join(t.TempDir(), "cache")
	defer saveQuarantine(t, cacheDir)
	faultinject.Enable(42, 0.05)
	t.Cleanup(faultinject.Disable)

	for pass := 1; pass <= 2; pass++ {
		eng := engine.New(engine.Config{Workers: runtime.NumCPU(), CacheDir: cacheDir})
		got := renderChaosSweep(t, eng)
		if got != clean {
			t.Fatalf("chaos pass %d diverged from fault-free output:\n--- clean\n%s\n--- chaos\n%s",
				pass, clean, got)
		}
		s := eng.Summary()
		t.Logf("pass %d: %d faults injected, %d retries, %d quarantined, degraded=%v",
			pass, s.FaultsInjected, s.DiskRetries, s.Quarantines, s.DiskDegraded)
	}
	if faultinject.Snapshot().Total() == 0 {
		t.Fatal("chaos run injected no faults — the differential proved nothing")
	}
}

// TestChaosSurvivesFullFaultRate pushes the fault rate to 1 so every
// disk write fails and the cache deterministically degrades to
// memory-only mid-sweep; every simulation result must still match the
// fault-free run. It drives sim() directly rather than through a figure
// driver because at rate 1 every Map worker attempt would panic past the
// injected-panic retry cap.
func TestChaosSurvivesFullFaultRate(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs the mini-sweep three times")
	}
	grid := []struct {
		bench    string
		clusters int
	}{
		{"gzip", 1}, {"gzip", 2}, {"gzip", 4}, {"gzip", 8},
		{"mcf", 1}, {"mcf", 2}, {"mcf", 4}, {"mcf", 8},
	}
	runGrid := func(eng *engine.Engine) []float64 {
		opts := chaosOpts(eng)
		ipcs := make([]float64, len(grid))
		for i, g := range grid {
			a, err := sim(opts, g.bench, g.clusters, StackFocused, false)
			if err != nil {
				t.Fatalf("sim %s x%d: %v", g.bench, g.clusters, err)
			}
			ipcs[i] = a.Res.IPC()
		}
		return ipcs
	}
	clean := runGrid(engine.New(engine.Config{Workers: runtime.NumCPU()}))

	cacheDir := filepath.Join(t.TempDir(), "cache")
	defer saveQuarantine(t, cacheDir)
	faultinject.Enable(7, 1)
	t.Cleanup(faultinject.Disable)

	eng := engine.New(engine.Config{
		Workers: runtime.NumCPU(), CacheDir: cacheDir, DiskErrorBudget: 8,
	})
	chaos := runGrid(eng)
	for i := range grid {
		if chaos[i] != clean[i] {
			t.Errorf("%s x%d: IPC %v under chaos, %v fault-free",
				grid[i].bench, grid[i].clusters, chaos[i], clean[i])
		}
	}
	if s := eng.Summary(); !s.DiskDegraded {
		t.Errorf("rate 1 with budget 8 did not degrade the disk cache (faults=%d, retries=%d)",
			s.FaultsInjected, s.DiskRetries)
	}
}

// TestChaosVariantBatch drives the fused Figure-4 variant batch directly
// under 5%% injection with a disk cache: pass one computes every
// geometry through one SimulateVariants call per benchmark (injected
// store faults retried or absorbed), pass two re-reads the batch from
// the possibly-torn disk entries (CRC-quarantined entries recompute).
// Both passes must match the fault-free batch exactly.
func TestChaosVariantBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs the mini-sweep three times")
	}
	grid := append([]int{1}, clusterCounts...)
	runBatch := func(eng *engine.Engine) []float64 {
		opts := chaosOpts(eng)
		var ipcs []float64
		for _, bench := range opts.Benchmarks {
			arts, err := simVariants(opts, bench, stackVariants(StackFocused, grid...), false)
			if err != nil {
				t.Fatalf("simVariants %s: %v", bench, err)
			}
			for _, a := range arts {
				ipcs = append(ipcs, a.Res.IPC())
			}
		}
		return ipcs
	}
	clean := runBatch(engine.New(engine.Config{Workers: runtime.NumCPU()}))

	cacheDir := filepath.Join(t.TempDir(), "cache")
	defer saveQuarantine(t, cacheDir)
	faultinject.Enable(42, 0.05)
	t.Cleanup(faultinject.Disable)

	for pass := 1; pass <= 2; pass++ {
		eng := engine.New(engine.Config{Workers: runtime.NumCPU(), CacheDir: cacheDir})
		chaos := runBatch(eng)
		for i := range clean {
			if chaos[i] != clean[i] {
				t.Fatalf("pass %d cell %d: IPC %v under chaos, %v fault-free",
					pass, i, chaos[i], clean[i])
			}
		}
		s := eng.Summary()
		t.Logf("pass %d: %d faults injected, %d retries, %d quarantined, misses=%d",
			pass, s.FaultsInjected, s.DiskRetries, s.Quarantines, s.SimMisses)
	}
	if faultinject.Snapshot().Total() == 0 {
		t.Fatal("chaos run injected no faults — the differential proved nothing")
	}
}

// TestKillAndResume simulates a killed sweep resumed from its cache
// dir: process one renders the gzip half of the sweep and dies in the
// middle of appending one result, and process two reruns the full sweep
// on the same cache dir. The resumed run must render exactly what an
// uninterrupted run renders while recomputing only what process one
// never finished, plus the torn result. (The split is by benchmark:
// schedule harvests live in memory only, so a split between drivers
// that share a harvest would re-simulate it.)
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs the mini-sweep three times")
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")
	defer saveQuarantine(t, cacheDir)

	e1 := engine.New(engine.Config{Workers: runtime.NumCPU(), CacheDir: cacheDir})
	half := chaosOpts(e1)
	half.Benchmarks = []string{"gzip"}
	for _, d := range chaosDrivers {
		if _, err := d.run(half); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
	}
	firstMisses := e1.Summary().SimMisses
	torn := simKey(half.WithDefaults(), "gzip", 8, StackFocused, false)
	torn.Variant = Ablation{}.canonical(8).String()
	tearFrame(t, cacheDir, torn.String())

	e2 := engine.New(engine.Config{Workers: runtime.NumCPU(), CacheDir: cacheDir})
	resumed := renderChaosSweep(t, e2)

	cleanEng := engine.New(engine.Config{Workers: runtime.NumCPU()})
	clean := renderChaosSweep(t, cleanEng)
	if resumed != clean {
		t.Fatalf("resumed sweep diverged from uninterrupted sweep:\n--- clean\n%s\n--- resumed\n%s",
			clean, resumed)
	}
	s, cleanMisses := e2.Summary(), cleanEng.Summary().SimMisses
	if want := cleanMisses - firstMisses + 1; s.SimMisses != want {
		t.Errorf("resumed run simulated %d jobs, want %d (uninterrupted %d - process one %d + 1 torn)",
			s.SimMisses, want, cleanMisses, firstMisses)
	}
	if s.Quarantines != 1 {
		t.Errorf("quarantined %d spans, want 1 (the torn frame)", s.Quarantines)
	}
}

// tearFrame rewrites the cache's summary segment as a kill -9 in the
// middle of appending canon's frame leaves it: every other frame intact,
// and canon's frame cut short at the end.
func tearFrame(t *testing.T, cacheDir, canon string) {
	t.Helper()
	path := filepath.Join(cacheDir, "summaries.csf")
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := json.Marshal(canon)
	prefix := append(append([]byte(`{"Key":`), key...), ',')
	var kept, cut []byte
	durable.ScanFrames(seg, len(seg), func(off int, payload []byte) {
		frame := seg[off : off+durable.FrameHeaderLen+len(payload)]
		if bytes.HasPrefix(payload, prefix) {
			cut = frame[:len(frame)/2]
		} else {
			kept = append(kept, frame...)
		}
	}, func(off, end int) {
		t.Fatalf("segment damaged at %d before the kill", off)
	})
	if cut == nil {
		t.Fatalf("process one persisted no result for %s", canon)
	}
	if err := os.WriteFile(path, append(kept, cut...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosEnvGate documents the CLUSTERSIM_CHAOS_* env contract used by
// the CI chaos job: the suite above enables injection explicitly, but a
// plain `go test` run under the env vars must also come up enabled.
func TestChaosEnvGate(t *testing.T) {
	t.Setenv("CLUSTERSIM_CHAOS_SEED", "9")
	t.Setenv("CLUSTERSIM_CHAOS_RATE", "0.25")
	if !faultinject.EnableFromEnv() {
		t.Fatal("EnableFromEnv ignored CLUSTERSIM_CHAOS_SEED/RATE")
	}
	t.Cleanup(faultinject.Disable)
	if !faultinject.Enabled() {
		t.Fatal("injection not enabled after EnableFromEnv")
	}
	fired := 0
	for i := 0; i < 400; i++ {
		if faultinject.Err(fmt.Sprintf("site-%d", i%4)) != nil {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("rate 0.25 never fired in 400 draws")
	}
}

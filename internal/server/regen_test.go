package server

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"

	"clustersim/internal/engine"
)

// The warm-regeneration gate: every servable experiment is an engine
// job all the way down, so a second engine on a warm cache dir renders
// the whole registry without simulating, analysing or scheduling
// anything, and renders the same bytes. Traces are never written to
// disk, so the warm engine generates each benchmark's trace once, for
// the experiments that read trace contents (consumers, workloads).

// sweepGoldens pins the SHA-256 of the ablation sweeps' rendered output
// at 20,000 instructions on gzip, vpr and mcf. The digests were
// generated while each sweep still built its machines (or, for
// replication, its replicated schedules) outside the engine, so a match
// proves the engine-routed drivers render the same bytes.
var sweepGoldens = map[string]string{
	"bandwidth-sweep":  "5977767ab667ddfb00ec65469ed8f1c5108d647e5ce14f343007aa7e9a76c09d",
	"consumers":        "647928636591b1b1fed4908502615b03dde3045075ce6b499c0d666ac0ccb62c",
	"detector-compare": "e7077cbb0c391e5542f0930d5a9253159a34a13d682770ddc186b8d0fcd3e140",
	"group-steer":      "08108c69c1c7b151bce97affca4be6e744fe8e1e6aeed099ca2b1f32a14229ef",
	"predictor-sweep":  "31a9c951bf470b6d86ed3deca9d7df0e84fdf9571ebb1e595768124449da1fb1",
	"replication":      "d38af651e80df395ab844a7a3d9cc1b9e8a0d672e2ddc02dd9d9fa5ea42c340e",
	"stall-sweep":      "70a06d13ac3855bec553c464132d8ccac29fe3b00408203638555dbb846632cf",
	"window-sweep":     "47b7b687821c74dc022b5aa2567ea50951708e05248050762088ce4e9efd137c",
}

func TestSweepGoldens(t *testing.T) {
	names := make([]string, 0, len(sweepGoldens))
	for name := range sweepGoldens {
		names = append(names, name)
	}
	sp := Spec{Experiments: names, Benchmarks: []string{"gzip", "vpr", "mcf"}, Insts: 20_000}
	arts, err := RunLocal(sp, engine.New(engine.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		sum := sha256.Sum256([]byte(a.Output))
		if got := hex.EncodeToString(sum[:]); got != sweepGoldens[a.Experiment] {
			t.Errorf("%s: sha256 %s, want %s; output:\n%s", a.Experiment, got, sweepGoldens[a.Experiment], a.Output)
		}
	}
}

func TestWarmRegenerationGate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	benchmarks := []string{"gzip", "mcf"}
	render := func(eng *engine.Engine) map[string]string {
		out := map[string]string{}
		for _, name := range ExperimentNames() {
			arts, err := RunLocal(Spec{Experiments: []string{name}, Benchmarks: benchmarks, Insts: 3_000}, eng)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = arts[0].Output
		}
		return out
	}
	cold := render(engine.New(engine.Config{CacheDir: dir}))
	warmEng := engine.New(engine.Config{CacheDir: dir})
	warm := render(warmEng)
	for _, name := range ExperimentNames() {
		if warm[name] != cold[name] {
			t.Errorf("%s: warm render differs from cold:\n--- cold\n%s\n--- warm\n%s", name, cold[name], warm[name])
		}
	}
	s := warmEng.Summary()
	if s.SimMisses != 0 || s.AnaMisses != 0 || s.SchedMisses != 0 {
		t.Errorf("warm engine did work: sim misses %d, analysis misses %d, sched misses %d",
			s.SimMisses, s.AnaMisses, s.SchedMisses)
	}
	if s.TraceMisses != int64(len(benchmarks)) {
		t.Errorf("warm engine generated %d traces, want one per benchmark (%d)", s.TraceMisses, len(benchmarks))
	}
	if s.SimDiskHits == 0 || s.SchedDiskHits == 0 || s.AnaDiskHits == 0 {
		t.Errorf("warm engine served nothing from disk: sim %d, sched %d, analysis %d",
			s.SimDiskHits, s.SchedDiskHits, s.AnaDiskHits)
	}
}

package experiments

import (
	"io"
	"testing"

	"clustersim/internal/engine"
)

func TestRegistryNamesUniqueAndTitled(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if e.Name == "" || e.Name == "all" || seen[e.Name] {
			t.Errorf("registry name %q is empty, reserved or repeated", e.Name)
		}
		seen[e.Name] = true
		if e.Title == "" || e.Render == nil {
			t.Errorf("%s: missing title or renderer", e.Name)
		}
		if got, ok := Lookup(e.Name); !ok || got.Title != e.Title {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Title, ok)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

// TestAnalysisDepthFollowsReaders renders fig5, fig14, slack and icost in
// registry order on one fresh engine: nothing is simulated or analyzed
// twice, and only the two runs ICost and SlackStudy read — focused 8x1w
// and 4x2w — carry the interaction lattice and slack.
func TestAnalysisDepthFollowsReaders(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	opts := Options{Insts: 4_000, Benchmarks: []string{"gzip", "mcf"}, Engine: eng}
	want := map[string]bool{"fig5": true, "fig14": true, "slack": true, "icost": true}
	for _, e := range Registry {
		if want[e.Name] {
			if err := e.Render(opts, io.Discard); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			delete(want, e.Name)
		}
	}
	if len(want) != 0 {
		t.Fatalf("not in the registry: %v", want)
	}

	type run struct {
		clusters int
		stack    Stack
	}
	analyzed := map[run]bool{{1, StackFocused}: true} // fig5's monolithic run
	for _, k := range clusterCounts {
		for _, stack := range Stacks() { // fig14; fig5 and fig14 share focused
			analyzed[run{k, stack}] = true
		}
	}
	full := map[run]bool{{8, StackFocused}: true, {4, StackFocused}: true}
	benches := int64(len(opts.Benchmarks))
	anaKeys := int64(len(analyzed)) * benches
	simKeys := anaKeys + benches // plus fig14's monolithic LoC baseline
	s := eng.Summary()
	if s.AnaMisses != anaKeys || s.SimMisses != simKeys {
		t.Errorf("analysis/sim misses = %d/%d, want %d/%d distinct keys",
			s.AnaMisses, s.SimMisses, anaKeys, simKeys)
	}
	for _, bench := range opts.Benchmarks {
		for r := range analyzed {
			cs, err := analysis(opts.WithDefaults(), bench, r.clusters, r.stack)
			if err != nil {
				t.Fatal(err)
			}
			if (cs.Matrix != nil) != full[r] || (cs.Slack != nil) != full[r] {
				t.Errorf("%s %dx %s: matrix %t, slack %t; want both %t",
					bench, r.clusters, r.stack, cs.Matrix != nil, cs.Slack != nil, full[r])
			}
		}
	}
	if after := eng.Summary(); after.AnaMisses != s.AnaMisses || after.SimMisses != s.SimMisses {
		t.Errorf("re-requesting the rendered analyses missed: analysis/sim misses %d/%d -> %d/%d",
			s.AnaMisses, s.SimMisses, after.AnaMisses, after.SimMisses)
	}
}

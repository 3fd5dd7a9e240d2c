package engine

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"clustersim/internal/machine"
)

func TestAnalysisCachesAndSharesSimArtifact(t *testing.T) {
	e := New(Config{Workers: 2})
	var runs atomic.Int64
	run := func(derive func(*machine.Machine) error) (Artifact, error) {
		runs.Add(1)
		return runTiny(1, derive)
	}
	cs1, err := e.AnalysisCtx(context.Background(), testAnaKey(1, true), run)
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := e.AnalysisCtx(context.Background(), testAnaKey(1, true), run)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("sim ran %d times, want 1", runs.Load())
	}
	if !reflect.DeepEqual(cs1, cs2) {
		t.Fatal("cached analysis differs from computed analysis")
	}
	if cs1.Matrix.Runtime[0] <= 0 {
		t.Fatalf("base runtime %d, want > 0", cs1.Matrix.Runtime[0])
	}
	if cs1.Matrix.Cost[0] != 0 {
		t.Fatalf("cost of the empty zero-set = %d, want 0", cs1.Matrix.Cost[0])
	}
	if cs1.Breakdown.Total() != cs1.Matrix.Runtime[0] {
		t.Fatalf("walk attributed %d cycles but the run took %d",
			cs1.Breakdown.Total(), cs1.Matrix.Runtime[0])
	}
	if cs1.Slack == nil || cs1.Slack.MeanSlack < 0 {
		t.Fatalf("full analysis slack summary = %+v", cs1.Slack)
	}
	s := e.Summary()
	if s.AnaHits != 1 || s.AnaMisses != 1 || s.AnaJobs != 1 {
		t.Errorf("analysis hits/misses/jobs = %d/%d/%d, want 1/1/1",
			s.AnaHits, s.AnaMisses, s.AnaJobs)
	}
	// The simulation the analysis triggered is itself cached: a one-key
	// SimVariantsCtx submission must hit without running.
	before := runs.Load()
	if _, err := simOne(e, context.Background(), testSimKey(1), run); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != before {
		t.Error("analysis did not share its simulation artifact with SimVariantsCtx")
	}
}

func TestAnalysisConcurrentDedup(t *testing.T) {
	e := New(Config{Workers: 8})
	var runs atomic.Int64
	const submitters = 12
	out := make([]CritSummary, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs, err := e.AnalysisCtx(context.Background(), testAnaKey(1, true), func(derive func(*machine.Machine) error) (Artifact, error) {
				runs.Add(1)
				return runTiny(1, derive)
			})
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = cs
		}(i)
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("sim ran %d times under concurrent analysis, want 1", runs.Load())
	}
	if s := e.Summary(); s.AnaJobs != 1 {
		t.Fatalf("analysis computed %d times, want 1", s.AnaJobs)
	}
	for i := 1; i < submitters; i++ {
		if !reflect.DeepEqual(out[0], out[i]) {
			t.Fatalf("submitter %d saw a different analysis", i)
		}
	}
}

// TestAnalysisLeadsItsSimFlight: while an analysis job simulates, it
// holds its key's sim flight, so a SimVariantsCtx of the key submitted
// meanwhile joins that run instead of simulating again; the flight ends
// with the simulation.
func TestAnalysisLeadsItsSimFlight(t *testing.T) {
	e := New(Config{Workers: 2})
	canon := testSimKey(1).String()
	var leading bool
	run := func(derive func(*machine.Machine) error) (Artifact, error) {
		e.mu.Lock()
		_, leading = e.inflight[canon]
		e.mu.Unlock()
		return runTiny(1, derive)
	}
	if _, err := e.AnalysisCtx(context.Background(), testAnaKey(1, true), run); err != nil {
		t.Fatal(err)
	}
	if !leading {
		t.Error("the analysis simulated without leading its key's sim flight")
	}
	e.mu.Lock()
	left := len(e.inflight)
	e.mu.Unlock()
	if left != 0 {
		t.Errorf("%d flights still open after the analysis returned", left)
	}
}

func TestAnalysisDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Config{Workers: 2, CacheDir: dir})
	cs1, err := e1.AnalysisCtx(context.Background(), testAnaKey(1, true), tinyRun(1))
	if err != nil {
		t.Fatal(err)
	}

	// A fresh engine over the same directory must serve the analysis from
	// disk without simulating or re-analyzing.
	e2 := New(Config{Workers: 2, CacheDir: dir})
	var runs atomic.Int64
	cs2, err := e2.AnalysisCtx(context.Background(), testAnaKey(1, true), func(derive func(*machine.Machine) error) (Artifact, error) {
		runs.Add(1)
		return runTiny(1, derive)
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Fatalf("disk-cached analysis re-simulated %d times", runs.Load())
	}
	if !reflect.DeepEqual(cs1, cs2) {
		t.Fatal("analysis changed across the disk round-trip")
	}
	s := e2.Summary()
	if s.AnaDiskHits != 1 || s.AnaJobs != 0 {
		t.Errorf("disk-hits/jobs = %d/%d, want 1/0", s.AnaDiskHits, s.AnaJobs)
	}
	// And it is now memory-resident: a second lookup is a plain hit.
	if _, err := e2.AnalysisCtx(context.Background(), testAnaKey(1, true), nil); err != nil {
		t.Fatal(err)
	}
	if s := e2.Summary(); s.AnaHits != 1 {
		t.Errorf("analysis hits = %d, want 1", s.AnaHits)
	}
}

// TestAnalysisDepth: a walk-only analysis computes the walk and nothing
// else, and shares its run with the full analysis of the same sim key
// without either answering for the other.
func TestAnalysisDepth(t *testing.T) {
	e := New(Config{Workers: 2})
	var runs atomic.Int64
	run := func(derive func(*machine.Machine) error) (Artifact, error) {
		runs.Add(1)
		return runTiny(1, derive)
	}
	walk, err := e.AnalysisCtx(context.Background(), testAnaKey(1, false), run)
	if err != nil {
		t.Fatal(err)
	}
	if walk.Matrix != nil || walk.Slack != nil {
		t.Fatalf("walk-only analysis carries matrix %v, slack %v", walk.Matrix, walk.Slack)
	}
	full, err := e.AnalysisCtx(context.Background(), testAnaKey(1, true), run)
	if err != nil {
		t.Fatal(err)
	}
	if full.Matrix == nil || full.Slack == nil {
		t.Fatal("full analysis is missing its matrix or slack")
	}
	if walk.Breakdown != full.Breakdown || walk.FwdOther != full.FwdOther {
		t.Error("walk-only and full analyses disagree on the walk")
	}
	if s := e.Summary(); s.AnaMisses != 2 || s.AnaHits != 0 {
		t.Errorf("analysis misses/hits = %d/%d, want 2/0: one depth answered for the other",
			s.AnaMisses, s.AnaHits)
	}
	if runs.Load() != 2 {
		t.Errorf("sim ran %d times, want 2 (the engine caches values, not machines)", runs.Load())
	}
}

// TestWalkOnlyDiskEntryCannotAnswerFull: a walk-only analysis reloaded
// from a cache dir is a miss for the full request of its run, and an
// entry whose products disagree with its key's depth is not served.
func TestWalkOnlyDiskEntryCannotAnswerFull(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(Config{CacheDir: dir}).AnalysisCtx(context.Background(), testAnaKey(1, false), tinyRun(1)); err != nil {
		t.Fatal(err)
	}
	e := New(Config{CacheDir: dir})
	full, err := e.AnalysisCtx(context.Background(), testAnaKey(1, true), tinyRun(1))
	if err != nil {
		t.Fatal(err)
	}
	if full.Matrix == nil || full.Slack == nil {
		t.Fatal("full request answered without a matrix or slack")
	}
	if s := e.Summary(); s.AnaDiskHits != 0 || s.AnaMisses != 1 {
		t.Errorf("analysis disk hits/misses = %d/%d, want 0/1", s.AnaDiskHits, s.AnaMisses)
	}
	if _, err := e.AnalysisCtx(context.Background(), testAnaKey(1, false), nil); err != nil {
		t.Fatalf("walk-only entry lost: %v", err)
	}

	// A walk-only summary framed under a full key's canon is refused.
	d := e.disk
	d.storeAnalysis(testAnaKey(2, true), &CritSummary{})
	if _, ok := d.loadAnalysis(testAnaKey(2, true)); ok {
		t.Error("a full key was served a summary without matrix or slack")
	}
}

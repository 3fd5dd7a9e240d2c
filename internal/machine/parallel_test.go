package machine_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"clustersim/internal/machine"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// This file gates the intra-job parallel replay layer: the variant
// fan-out (SimulateVariantsOpts), the zero-materialization result path
// (VariantsOptions.ResultOnly), the forwarding-latency grid fusion, and
// the pipelined store streaming (SimulateStorePiped). Every parallel
// path is differentially pinned byte-identical to its serial reference
// under several worker counts — the PR 1 determinism contract extended
// to intra-job parallelism.

// runBattery executes the full variant battery at the given fan-out and
// returns results plus events per variant (events copied so machines
// can be recycled).
func runBattery(t *testing.T, tr *trace.Trace, specs []vspec, opt machine.VariantsOptions) ([]machine.Result, [][]machine.Event, machine.SharingStats) {
	t.Helper()
	variants := make([]machine.Variant, len(specs))
	for i, s := range specs {
		variants[i] = s.build(tr)
	}
	outs, stats, err := machine.SimulateVariantsOpts(tr, variants, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]machine.Result, len(outs))
	evs := make([][]machine.Event, len(outs))
	for i, o := range outs {
		res[i] = o.Res
		evs[i] = append([]machine.Event(nil), o.M.Events()...)
		machine.Recycle(o.M)
	}
	return res, evs, stats
}

// TestSimulateVariantsParallelMatchesSerial is the fan-out differential
// gate: results and per-event logs must be byte-identical to the serial
// reference under every worker count, and the prepare-phase stats must
// not depend on the schedule.
func TestSimulateVariantsParallelMatchesSerial(t *testing.T) {
	for tname, tr := range testTraces(t) {
		for _, specs := range [][]vspec{variantSpecs(), focusedSweepSpecs()} {
			checkParallelMatchesSerial(t, tname, tr, specs)
		}
	}
}

// checkParallelMatchesSerial replays specs at several worker counts
// against the serial replay of the same batch.
func checkParallelMatchesSerial(t *testing.T, tname string, tr *trace.Trace, specs []vspec) {
	t.Helper()
	wantRes, wantEv, wantStats := runBattery(t, tr, specs, machine.VariantsOptions{})
	for _, workers := range []int{2, 3, runtime.NumCPU() + 1} {
		gotRes, gotEv, gotStats := runBattery(t, tr, specs, machine.VariantsOptions{Workers: workers})
		for i := range wantRes {
			sameRun(t, fmt.Sprintf("%s/%s workers %d", tname, specs[i].name, workers),
				gotRes[i], gotEv[i], wantRes[i], wantEv[i])
		}
		// Stats are a pure function of the serial prepare phase;
		// only the replay-phase bookkeeping may differ.
		gotStats.ReplayWorkers, wantStats.ReplayWorkers = 0, 0
		gotStats.ReplayBusyNs, wantStats.ReplayBusyNs = 0, 0
		if gotStats != wantStats {
			t.Errorf("%s workers %d: stats diverged:\n got: %+v\nwant: %+v",
				tname, workers, gotStats, wantStats)
		}
	}
}

// TestSimulateVariantsResultOnly pins the zero-materialization path:
// identical Results, empty event logs on every eligible variant, and an
// EventsElided count that matches the eligible set exactly.
func TestSimulateVariantsResultOnly(t *testing.T) {
	for tname, tr := range testTraces(t) {
		wantRes, wantEv, _ := runBattery(t, tr, variantSpecs(), machine.VariantsOptions{})
		for _, workers := range []int{1, 3} {
			gotRes, gotEv, stats := runBattery(t, tr, variantSpecs(),
				machine.VariantsOptions{Workers: workers, ResultOnly: true})
			elided := 0
			for i := range wantRes {
				label := fmt.Sprintf("%s variant %d workers %d", tname, i, workers)
				if !resultsEqual(gotRes[i], wantRes[i]) {
					t.Errorf("%s: result differs under ResultOnly:\n got: %+v\nwant: %+v",
						label, gotRes[i], wantRes[i])
				}
				if len(gotEv[i]) == 0 {
					elided++
				} else {
					// Ineligible variants must still materialize the
					// full, byte-identical log.
					sameRun(t, label, gotRes[i], gotEv[i], wantRes[i], wantEv[i])
				}
			}
			if elided == 0 {
				t.Fatalf("%s: no variant took the zero-materialization path", tname)
			}
			if want := int64(elided) * int64(tr.Len()); stats.EventsElided != want {
				t.Errorf("%s: EventsElided = %d, want %d (%d variants × %d insts)",
					tname, stats.EventsElided, want, elided, tr.Len())
			}
		}
	}
}

func resultsEqual(a, b machine.Result) bool { return a == b }

// TestSimulateVariantsParallelErrorWins pins the error contract under
// fan-out: the lowest-index failing variant's error surfaces, no
// results are returned, and sibling variants still complete (their
// machines are recycled, not leaked to the caller).
func TestSimulateVariantsParallelErrorWins(t *testing.T) {
	tr := testTraces(t)["random"]
	specs := variantSpecs()
	variants := make([]machine.Variant, len(specs))
	for i, s := range specs {
		variants[i] = s.build(tr)
	}
	// Two invalid variants: the lower index must win.
	variants[4].Config.Clusters = -1
	variants[2].Config.Clusters = -1
	out, _, err := machine.SimulateVariantsOpts(tr, variants, machine.VariantsOptions{Workers: 3})
	if err == nil || !strings.Contains(err.Error(), "variant 2") {
		t.Fatalf("err = %v, want the variant-2 failure", err)
	}
	if out != nil {
		t.Fatalf("got %d results alongside an error", len(out))
	}
}

// TestFwdGridSharingBoundary pins the forwarding-latency fusion
// boundary from both sides. Sharing side: variants differing only in
// FwdLatency carry state-equal predictors, so the batch builds ONE
// prediction memo group and still reproduces every scan-oracle run
// exactly.
// Boundary side: those same variants' dispatch streams diverge — a
// longer forwarding latency keeps producers outstanding longer, which
// changes steering decisions — so fusing whole steering/dispatch images
// across the fwd axis (rather than just prediction memos) would be
// unsound. Any such fusion would break the differential half above.
func TestFwdGridSharingBoundary(t *testing.T) {
	tr, err := workload.Generate("gcc", 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	fwds := []int{1, 2, 4, 8}
	bin := trainedBinary(tr)
	variants := make([]machine.Variant, len(fwds))
	for i, fwd := range fwds {
		cfg := machine.NewConfig(4)
		cfg.FwdLatency = fwd
		// Each variant gets its own predictor instance in the same
		// state, as the Variant contract requires; StateEqual is what
		// lets the batch share one memo.
		pb := trainedBinary(tr)
		if !bin.StateEqual(pb) {
			t.Fatal("identically trained predictors report unequal state")
		}
		variants[i] = machine.Variant{Config: cfg, Pol: steer.Focused{}, Hooks: machine.Hooks{Binary: pb}}
	}
	outs, stats, err := machine.SimulateVariants(tr, variants)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, o := range outs {
			machine.Recycle(o.M)
		}
	}()
	if stats.GridGroups != 1 || stats.GridShared != len(fwds)-1 {
		t.Errorf("grid fusion: groups=%d shared=%d, want 1 group serving %d variants",
			stats.GridGroups, stats.GridShared, len(fwds))
	}
	// Differential half: every fused+memo-shared run equals the scan
	// oracle, which consults the live predictor per dispatch.
	for i := range variants {
		oracle, oracleRes := runSolo(t, tr, variants[i], true)
		sameRun(t, fmt.Sprintf("fwd=%d", fwds[i]),
			outs[i].Res, outs[i].M.Events(), oracleRes, oracle.Events())
	}
	// Boundary half: the fwd axis must actually change dispatch. If this
	// ever fails, the model lost FwdLatency's feedback into steering and
	// the unsound "share dispatch images" fusion would masquerade as safe.
	base := outs[0].M.Events()
	diverged := false
	for i := 1; i < len(outs) && !diverged; i++ {
		for s, ev := range outs[i].M.Events() {
			if ev.Dispatch != base[s].Dispatch || ev.Cluster != base[s].Cluster {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Error("dispatch streams identical across forwarding latencies; the grid-fusion boundary test has lost its teeth")
	}
}

// observation records one observer delivery for order comparison.
type observation struct {
	seg    int
	base   int64
	cycles int64
}

// observedRun runs the piped path at the given depth, recording the
// observer delivery order.
func observedRun(t *testing.T, st *trace.Store, window int64, depth int) (machine.StreamResult, []observation) {
	t.Helper()
	var obs []observation
	sr, err := machine.SimulateStorePiped(st, window, depBasedSegment(4),
		func(seg int, base int64, m *machine.Machine) error {
			// Fingerprint the delivered machine by its window's final
			// commit cycle: right machine, right order, finished run.
			ev := m.Events()
			obs = append(obs, observation{seg: seg, base: base, cycles: ev[len(ev)-1].Commit})
			return nil
		}, depth)
	if err != nil {
		t.Fatalf("depth %d: %v", depth, err)
	}
	return sr, obs
}

// TestSimulateStorePipedMatchesSerial is the pipelined streaming gate:
// aggregate results and observer call order must be byte-identical to
// the serial path at every depth.
func TestSimulateStorePipedMatchesSerial(t *testing.T) {
	tr, err := workload.Generate("gcc", 6000, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreFor(t, tr, 512)
	for _, window := range []int64{512, 700, 1999, 6000} {
		want, wantObs := observedRun(t, st, window, 1)
		for _, depth := range []int{2, 3, runtime.NumCPU() + 1} {
			got, gotObs := observedRun(t, st, window, depth)
			if got != want {
				t.Errorf("window %d depth %d: stream result differs:\n got: %+v\nwant: %+v",
					window, depth, got, want)
			}
			if len(gotObs) != len(wantObs) {
				t.Fatalf("window %d depth %d: %d observer calls, want %d",
					window, depth, len(gotObs), len(wantObs))
			}
			for i := range wantObs {
				if gotObs[i] != wantObs[i] {
					t.Errorf("window %d depth %d: observer call %d = %+v, want %+v",
						window, depth, i, gotObs[i], wantObs[i])
				}
			}
		}
	}
}

// TestSimulateStorePipedErrorPropagates mirrors the serial error test:
// a segment-builder error aborts the run with the failing window's
// error, under read-ahead, and an observer error does the same.
func TestSimulateStorePipedErrorPropagates(t *testing.T) {
	tr, err := workload.Generate("gzip", 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreFor(t, tr, 512)
	mk := func(seg int) (machine.Config, machine.SteerPolicy, machine.Hooks, error) {
		if seg == 2 {
			return machine.Config{}, nil, machine.Hooks{}, fmt.Errorf("segment 2 refused")
		}
		return machine.NewConfig(2), &steer.DepBased{}, machine.Hooks{}, nil
	}
	_, err = machine.SimulateStorePiped(st, 1000, mk, nil, 3)
	if err == nil || !strings.Contains(err.Error(), "segment 2 refused") {
		t.Fatalf("mk error: err = %v, want segment 2 failure", err)
	}
	calls := 0
	_, err = machine.SimulateStorePiped(st, 1000, depBasedSegment(2),
		func(seg int, base int64, m *machine.Machine) error {
			calls++
			if seg == 1 {
				return fmt.Errorf("observer refused window 1")
			}
			return nil
		}, 3)
	if err == nil || !strings.Contains(err.Error(), "observer refused window 1") {
		t.Fatalf("observer error: err = %v, want window-1 failure", err)
	}
	if calls != 2 {
		t.Errorf("observer ran %d times, want 2 (windows 0 and 1, in order)", calls)
	}
}

package machine_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"clustersim/internal/critpath"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
	"clustersim/internal/xrand"
)

// The SimulateVariants differential battery. The contract under test:
// a fused variant's Result and full event timeline are byte-identical
// to (a) the full-scan oracle, the reference, (b) a standalone run of the
// same configuration (New + Run, a one-variant batch), and to themselves
// under (c) any variant ordering and (d) pooled-machine reuse after
// the batch recycles its machines. Every fused facility — shared front-end profile, steering
// kernel, packed replay — is covered because the spec list spans kernel
// and non-kernel policies, static and detector-trained predictors, group
// steering, bypass limits and every scheduling mode.

// vspec builds one variant fresh per call, so each simulation path
// (fused, solo, oracle, permuted, recycled) gets its own predictor and
// detector instances with identical deterministic state.
type vspec struct {
	name  string
	build func(tr *trace.Trace) machine.Variant
}

// trainedBinary returns a binary predictor deterministically pre-trained
// over the trace's PCs (so focused scoring actually discriminates).
func trainedBinary(tr *trace.Trace) *predictor.Binary {
	b := predictor.NewDefaultBinary()
	r := xrand.New(7)
	for i := range tr.Insts {
		if r.Bool(0.3) {
			b.Train(tr.Insts[i].PC, r.Bool(0.5))
		}
	}
	return b
}

// trainedLoC returns a LoC predictor deterministically pre-trained over
// the trace's PCs.
func trainedLoC(tr *trace.Trace, seed uint64) *predictor.LoC {
	l := predictor.NewDefaultLoC(xrand.New(seed))
	r := xrand.New(seed + 1)
	for i := range tr.Insts {
		if r.Bool(0.4) {
			l.Train(tr.Insts[i].PC, r.Bool(0.3))
		}
	}
	return l
}

func variantSpecs() []vspec {
	return []vspec{
		{"dep-1x", func(tr *trace.Trace) machine.Variant {
			return machine.Variant{Config: machine.NewConfig(1), Pol: steer.DepBased{}}
		}},
		{"dep-4x-group", func(tr *trace.Trace) machine.Variant {
			cfg := machine.NewConfig(4)
			cfg.GroupSteering = true
			return machine.Variant{Config: cfg, Pol: steer.DepBased{}}
		}},
		{"focused-2x", func(tr *trace.Trace) machine.Variant {
			cfg := machine.NewConfig(2)
			cfg.SchedMode = machine.SchedBinaryCritical
			return machine.Variant{Config: cfg, Pol: steer.Focused{},
				Hooks: machine.Hooks{Binary: trainedBinary(tr)}}
		}},
		{"loc-4x-bypass1", func(tr *trace.Trace) machine.Variant {
			cfg := machine.NewConfig(4)
			cfg.SchedMode = machine.SchedLoC
			cfg.BypassPerCluster = 1
			return machine.Variant{Config: cfg, Pol: steer.LoC{},
				Hooks: machine.Hooks{LoC: trainedLoC(tr, 11), Binary: trainedBinary(tr)}}
		}},
		{"stall-2x-fwd3", func(tr *trace.Trace) machine.Variant {
			cfg := machine.NewConfig(2)
			cfg.SchedMode = machine.SchedLoC
			cfg.FwdLatency = 3
			return machine.Variant{Config: cfg, Pol: &steer.StallOverSteer{},
				Hooks: machine.Hooks{LoC: trainedLoC(tr, 23)}}
		}},
		{"proactive-4x", func(tr *trace.Trace) machine.Variant {
			// Stateful policy: no kernel, exercises the interface fallback
			// inside a fused batch.
			cfg := machine.NewConfig(4)
			cfg.SchedMode = machine.SchedLoC
			return machine.Variant{Config: cfg, Pol: steer.NewProactive(),
				Hooks: machine.Hooks{LoC: trainedLoC(tr, 31), Binary: trainedBinary(tr)}}
		}},
		{"focused-8x-detector", func(tr *trace.Trace) machine.Variant {
			// Online detector training the binary predictor mid-run: the
			// kernel must see every update as it lands.
			cfg := machine.NewConfig(8)
			cfg.SchedMode = machine.SchedBinaryCritical
			hooks := machine.Hooks{Binary: predictor.NewDefaultBinary(), EpochLen: 256}
			det := critpath.NewDetector(hooks.Binary, nil)
			hooks.OnEpoch = det.OnEpoch
			return machine.Variant{Config: cfg, Pol: steer.Focused{}, Hooks: hooks,
				Setup: func(m *machine.Machine) { det.Bind(m) }}
		}},
	}
}

// focusedSweepSpecs is the Figure 4 cluster sweep: focused steering and
// binary-critical scheduling with an untrained default binary predictor,
// at 1, 2 and 4 clusters.
func focusedSweepSpecs() []vspec {
	var specs []vspec
	for _, clusters := range []int{1, 2, 4} {
		specs = append(specs, vspec{fmt.Sprintf("focused-%dx-untrained", clusters), func(*trace.Trace) machine.Variant {
			cfg := machine.NewConfig(clusters)
			cfg.SchedMode = machine.SchedBinaryCritical
			return machine.Variant{Config: cfg, Pol: steer.Focused{},
				Hooks: machine.Hooks{Binary: predictor.NewDefaultBinary()}}
		}})
	}
	return specs
}

// runSolo executes one variant on a fresh non-pooled machine, on its own
// or on the full-scan oracle issue loop.
func runSolo(t *testing.T, tr *trace.Trace, v machine.Variant, oracle bool) (*machine.Machine, machine.Result) {
	t.Helper()
	m, err := machine.New(v.Config, tr, v.Pol, v.Hooks)
	if err != nil {
		t.Fatal(err)
	}
	if v.Setup != nil {
		v.Setup(m)
	}
	if oracle {
		m.UseOracleIssue(true)
	}
	return m, m.Run()
}

// sameRun requires result and per-event byte identity between two runs.
func sameRun(t *testing.T, label string, got machine.Result, gotEv []machine.Event, want machine.Result, wantEv []machine.Event) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: result differs:\n got: %+v\nwant: %+v", label, got, want)
	}
	if len(gotEv) != len(wantEv) {
		t.Fatalf("%s: %d events vs %d", label, len(gotEv), len(wantEv))
	}
	for i := range gotEv {
		if gotEv[i] != wantEv[i] {
			t.Fatalf("%s: event %d differs:\n got: %+v\nwant: %+v", label, i, gotEv[i], wantEv[i])
		}
	}
}

// simulated is one variant's run as its batch's consume saw it, with
// the event log copied out before the batch recycled the machine.
type simulated struct {
	res machine.Result
	ev  []machine.Event
}

// simulateAll runs variants as one SimulateVariants batch at the given
// fan-out, checks every live machine's invariants, and returns each
// variant's run in variant order.
func simulateAll(t *testing.T, tr *trace.Trace, variants []machine.Variant, workers int) []simulated {
	t.Helper()
	out := make([]simulated, len(variants))
	_, err := machine.SimulateVariants(tr, variants, workers, func(i int, m *machine.Machine, res machine.Result) error {
		if err := machine.Check(m); err != nil {
			return fmt.Errorf("variant %d violates invariants: %w", i, err)
		}
		out[i] = simulated{res: res, ev: slices.Clone(m.Events())}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// testTraces returns the battery's traces: a synthetic benchmark slice
// and a random program.
func testTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	gz, err := workload.Generate("gzip", 2500, 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*trace.Trace{
		"gzip":   gz,
		"random": randomTrace(xrand.New(99), 1500),
	}
}

func TestSimulateVariantsMatchesSoloAndOracle(t *testing.T) {
	for tname, tr := range testTraces(t) {
		for _, specs := range [][]vspec{variantSpecs(), focusedSweepSpecs()} {
			checkMatchesSoloAndOracle(t, tname, tr, specs)
		}
	}
}

// checkMatchesSoloAndOracle runs specs as one fused batch and requires
// every variant to match its standalone and scan-oracle runs.
func checkMatchesSoloAndOracle(t *testing.T, tname string, tr *trace.Trace, specs []vspec) {
	t.Helper()
	variants := make([]machine.Variant, len(specs))
	for i, s := range specs {
		variants[i] = s.build(tr)
	}
	outs := simulateAll(t, tr, variants, 1)
	for i, s := range specs {
		label := tname + "/" + s.name
		solo, soloRes := runSolo(t, tr, s.build(tr), false)
		sameRun(t, label+"/vs-solo", outs[i].res, outs[i].ev, soloRes, solo.Events())
		oracle, oracleRes := runSolo(t, tr, s.build(tr), true)
		sameRun(t, label+"/vs-oracle", outs[i].res, outs[i].ev, oracleRes, oracle.Events())
	}
}

func TestSimulateVariantsOrderInvariance(t *testing.T) {
	tr := testTraces(t)["gzip"]
	specs := variantSpecs()
	n := len(specs)
	// Identity, reversal, and a rotation: enough to move every variant
	// both earlier and later than every other.
	perms := [][]int{make([]int, n), make([]int, n), make([]int, n)}
	for i := 0; i < n; i++ {
		perms[0][i] = i
		perms[1][i] = n - 1 - i
		perms[2][i] = (i + 3) % n
	}
	var base map[string]simulated
	for pi, perm := range perms {
		variants := make([]machine.Variant, n)
		for j, si := range perm {
			variants[j] = specs[si].build(tr)
		}
		outs := simulateAll(t, tr, variants, 1)
		got := map[string]simulated{}
		for j, si := range perm {
			got[specs[si].name] = outs[j]
		}
		if pi == 0 {
			base = got
			continue
		}
		for name, b := range base {
			g := got[name]
			sameRun(t, fmt.Sprintf("perm %d/%s", pi, name), g.res, g.ev, b.res, b.ev)
		}
	}
}

func TestSimulateVariantsAfterRecycle(t *testing.T) {
	tr := testTraces(t)["random"]
	specs := variantSpecs()
	run := func() []simulated {
		variants := make([]machine.Variant, len(specs))
		for i, s := range specs {
			variants[i] = s.build(tr)
		}
		return simulateAll(t, tr, variants, 1)
	}
	first := run()
	second := run() // pooled machines now carry recycled state
	for i, s := range specs {
		sameRun(t, "recycled/"+s.name, second[i].res, second[i].ev, first[i].res, first[i].ev)
	}
}

func TestSimulateVariantsSharingStats(t *testing.T) {
	tr := testTraces(t)["random"]
	specs := variantSpecs()
	variants := make([]machine.Variant, len(specs))
	for i, s := range specs {
		variants[i] = s.build(tr)
	}
	stats, err := machine.SimulateVariants(tr, variants, 1, func(int, *machine.Machine, machine.Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplayBusyNs <= 0 {
		t.Errorf("ReplayBusyNs = %d, want > 0", stats.ReplayBusyNs)
	}
}

// TestKernelSelection pins which policies steer on the inlined kernel:
// the four stateless ones, each with its own score and stall rule, while
// the stateful proactive policy takes the SteerPolicy interface path.
func TestKernelSelection(t *testing.T) {
	for _, tc := range []struct {
		pol  machine.SteerPolicy
		want *machine.KernelSpec
	}{
		{steer.DepBased{}, &machine.KernelSpec{Score: machine.KernelScoreNone}},
		{steer.Focused{}, &machine.KernelSpec{Score: machine.KernelScoreBinary}},
		{steer.LoC{}, &machine.KernelSpec{Score: machine.KernelScoreLoC}},
		{&steer.StallOverSteer{}, &machine.KernelSpec{Score: machine.KernelScoreLoC, Stall: true,
			StallThreshold: steer.DefaultStallThreshold}},
		{&steer.StallOverSteer{Threshold: 0.5}, &machine.KernelSpec{Score: machine.KernelScoreLoC, Stall: true,
			StallThreshold: 0.5}},
		{steer.NewProactive(), nil},
	} {
		got := machine.KernelOf(tc.pol)
		if (got == nil) != (tc.want == nil) || got != nil && *got != *tc.want {
			t.Errorf("%s: kernel %+v, want %+v", tc.pol.Name(), got, tc.want)
		}
	}
}

// TestFrontEndSharingBoundary pins the front-end sharing contract: the
// live gshare outcome stream of the scan oracle is identical across
// fetch widths and cluster geometries (fetch consults the predictor
// exactly once per branch, in program order, regardless of timing),
// which is precisely what lets every replay train it once per
// GshareBits. The L1 sits on the other side of the boundary — data-cache
// accesses happen at issue time and issue order is config-dependent — so
// each variant keeps its own cache; the differential tests above would
// fail on any config whose L1MissRate drifted from its oracle run, which
// is what sharing would do.
func TestFrontEndSharingBoundary(t *testing.T) {
	tr := testTraces(t)["gzip"]
	type shape struct {
		fetch    int
		clusters int
	}
	shapes := []shape{{8, 1}, {1, 1}, {2, 4}, {16, 8}, {4, 2}}
	var baseMiss []bool
	var baseRes machine.Result
	for i, sh := range shapes {
		cfg := machine.NewConfig(sh.clusters)
		cfg.FetchWidth = sh.fetch
		m, err := machine.New(cfg, tr, steer.DepBased{}, machine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		m.UseOracleIssue(true)
		res := m.Run()
		miss := make([]bool, tr.Len())
		for s, ev := range m.Events() {
			miss[s] = ev.Mispredicted
		}
		if i == 0 {
			baseMiss, baseRes = miss, res
			continue
		}
		if res.Branches != baseRes.Branches || res.Mispredicts != baseRes.Mispredicts {
			t.Fatalf("shape %+v: branch stats (%d,%d) differ from base (%d,%d)",
				sh, res.Branches, res.Mispredicts, baseRes.Branches, baseRes.Mispredicts)
		}
		for s := range miss {
			if miss[s] != baseMiss[s] {
				t.Fatalf("shape %+v: branch %d mispredict=%v, base=%v — front-end contract violated",
					sh, s, miss[s], baseMiss[s])
			}
		}
	}
}

package machine_test

import (
	"fmt"
	"testing"

	"clustersim/internal/critpath"
	"clustersim/internal/isa"
	"clustersim/internal/machine"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/xrand"
)

// randomTrace builds a structurally valid random instruction stream with
// realistic operand/branch/memory mixes.
func randomTrace(r *xrand.Rand, n int) *trace.Trace {
	b := trace.NewBuilder(n)
	for i := 0; i < n; i++ {
		op := isa.Op(r.Intn(int(isa.NumOps)))
		in := isa.Inst{
			Op:  op,
			PC:  uint64(0x1000 + 4*r.Intn(128)),
			Src: [2]isa.Reg{isa.NoReg, isa.NoReg},
			Dst: isa.NoReg,
		}
		for s := 0; s < 2; s++ {
			if r.Bool(0.6) {
				in.Src[s] = isa.Reg(r.Intn(isa.NumRegs))
			}
		}
		if op != isa.Store && op != isa.Branch {
			in.Dst = isa.Reg(r.Intn(isa.NumRegs))
		}
		if op.IsMem() {
			in.Addr = uint64(r.Intn(1<<14)) * 8
		}
		if op.IsBranch() {
			in.Taken = r.Bool(0.7)
		}
		b.Append(in)
	}
	return b.Trace()
}

// TestRandomTracesSatisfyInvariants throws random programs at random
// machine configurations and checks the full invariant battery plus
// critical-path conservation.
func TestRandomTracesSatisfyInvariants(t *testing.T) {
	r := xrand.New(2024)
	clusterChoices := []int{1, 2, 4, 8}
	for trial := 0; trial < 12; trial++ {
		tr := randomTrace(r.Fork(), 500+r.Intn(1500))
		clusters := clusterChoices[r.Intn(len(clusterChoices))]
		cfg := machine.NewConfig(clusters)
		cfg.FwdLatency = 1 + r.Intn(4)
		if r.Bool(0.3) {
			cfg.BypassPerCluster = 1 + r.Intn(2)
		}
		var pol machine.SteerPolicy = steer.DepBased{}
		if r.Bool(0.5) {
			pol = &steer.StallOverSteer{}
		}
		m, err := machine.New(cfg, tr, pol, machine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		checkInvariants(t, m, res)
		if t.Failed() {
			t.Fatalf("trial %d (clusters=%d fwd=%d bypass=%d policy=%s) violated invariants",
				trial, clusters, cfg.FwdLatency, cfg.BypassPerCluster, pol.Name())
		}
		a, err := critpath.AnalyzeRun(m)
		if err != nil {
			t.Fatal(err)
		}
		last := m.Events()[tr.Len()-1].Commit
		if got := a.Breakdown.Total(); got != last {
			t.Fatalf("trial %d: attribution %d != runtime %d", trial, got, last)
		}
	}
}

// TestRandomTracesVariantsMatchSolo is the cross-variant property
// companion to TestRandomTracesSatisfyInvariants: for random programs and
// a random mix of geometries and policies, the fused SimulateVariants run
// must be indistinguishable — result and full event timeline — from
// running each variant alone on the scan oracle.
func TestRandomTracesVariantsMatchSolo(t *testing.T) {
	r := xrand.New(7031)
	clusterChoices := []int{1, 2, 4, 8}
	for trial := 0; trial < 8; trial++ {
		tr := randomTrace(r.Fork(), 400+r.Intn(1200))
		nvar := 2 + r.Intn(3)
		mk := func() []machine.Variant {
			rr := xrand.New(uint64(9000 + trial))
			var vs []machine.Variant
			for i := 0; i < nvar; i++ {
				cfg := machine.NewConfig(clusterChoices[rr.Intn(len(clusterChoices))])
				cfg.FwdLatency = 1 + rr.Intn(4)
				if rr.Bool(0.3) {
					cfg.BypassPerCluster = 1 + rr.Intn(2)
				}
				var pol machine.SteerPolicy = steer.DepBased{}
				var hooks machine.Hooks
				switch rr.Intn(3) {
				case 1:
					pol = &steer.StallOverSteer{}
					hooks.LoC = trainedLoC(tr, uint64(100*trial+i))
					if rr.Bool(0.5) {
						cfg.SchedMode = machine.SchedLoC
					}
				case 2:
					pol = steer.Focused{}
					hooks.Binary = trainedBinary(tr)
				}
				vs = append(vs, machine.Variant{Config: cfg, Pol: pol, Hooks: hooks})
			}
			return vs
		}
		outs, _, err := machine.SimulateVariants(tr, mk(), 1)
		if err != nil {
			t.Fatal(err)
		}
		solo := mk()
		for i := range outs {
			if err := machine.Check(outs[i].M); err != nil {
				t.Fatalf("trial %d variant %d: %v", trial, i, err)
			}
			m, err := machine.New(solo[i].Config, tr, solo[i].Pol, solo[i].Hooks)
			if err != nil {
				t.Fatal(err)
			}
			m.UseOracleIssue(true)
			res := m.Run()
			sameRun(t, fmt.Sprintf("trial %d variant %d", trial, i), outs[i].Res, outs[i].M.Events(), res, m.Events())
		}
		for _, o := range outs {
			machine.Recycle(o.M)
		}
	}
}

// TestBandwidthLimitedForwarding verifies that with a 1-broadcast/cycle
// bypass limit, remote availability respects both the forwarding latency
// and the broadcast slots, and readiness honors it.
func TestBandwidthLimitedForwarding(t *testing.T) {
	// 4 independent producers on cluster 0 completing together, each
	// consumed on cluster 1: with 1 broadcast/cycle their remote
	// availabilities must serialize.
	var insts []isa.Inst
	for i := 0; i < 4; i++ {
		insts = append(insts, isa.Inst{PC: uint64(0x10 + 4*i), Op: isa.IntALU,
			Dst: isa.Reg(i + 1), Src: [2]isa.Reg{isa.NoReg, isa.NoReg}})
	}
	for i := 0; i < 4; i++ {
		insts = append(insts, isa.Inst{PC: uint64(0x30 + 4*i), Op: isa.IntALU,
			Dst: isa.Reg(i + 10), Src: [2]isa.Reg{isa.Reg(i + 1), isa.NoReg}})
	}
	tr := trace.Rebuild(insts)
	cfg := machine.NewConfig(2)
	cfg.BypassPerCluster = 1
	pol := &splitPolicy{}
	m, err := machine.New(cfg, tr, pol, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	ev := m.Events()
	// Producers issue together (4-wide cluster 0) and complete together;
	// their RemoteAvail values must be pairwise distinct (serialized
	// broadcasts).
	seen := map[int64]bool{}
	for i := 0; i < 4; i++ {
		ra := ev[i].RemoteAvail
		if ra < ev[i].Complete+int64(cfg.FwdLatency) {
			t.Fatalf("producer %d remote avail %d before complete+fwd", i, ra)
		}
		if seen[ra] {
			t.Fatalf("producers share a broadcast slot (remote avail %d)", ra)
		}
		seen[ra] = true
	}
	// Consumers on cluster 1 must not issue before the remote avail.
	for i := 4; i < 8; i++ {
		p := i - 4
		if ev[i].Issue < ev[p].RemoteAvail {
			t.Fatalf("consumer %d issued at %d before remote avail %d",
				i, ev[i].Issue, ev[p].RemoteAvail)
		}
	}
}

// splitPolicy puts the first half of the trace on cluster 0 and the rest
// on cluster 1.
type splitPolicy struct{ steer.Base }

func (splitPolicy) Name() string { return "split" }
func (splitPolicy) Steer(v *machine.SteerView) machine.Decision {
	c := 0
	if v.Seq() >= 4 {
		c = 1
	}
	return machine.Decision{Cluster: c, Tag: machine.SteerNoPref}
}

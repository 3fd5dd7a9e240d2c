package machine

import (
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/trace"
)

// guardTrace builds a small branch-bearing trace for the profile tests.
func guardTrace(n int) *trace.Trace {
	b := trace.NewBuilder(n)
	for i := 0; i < n; i++ {
		in := isa.Inst{
			PC:  uint64(0x400 + 4*(i%16)),
			Op:  isa.IntALU,
			Dst: isa.Reg(1 + i%4),
			Src: [2]isa.Reg{isa.Reg(1 + (i+1)%4), isa.NoReg},
		}
		if i%5 == 4 {
			in.Op, in.Taken, in.Dst = isa.Branch, i%2 == 0, isa.NoReg
		}
		b.Append(in)
	}
	return b.Trace()
}

// TestFrontProfileMatchesLiveGshare pins that the precomputed profile
// reproduces the live predictor's per-branch outcomes exactly (only the
// scan oracle still trains a live gshare).
func TestFrontProfileMatchesLiveGshare(t *testing.T) {
	tr := guardTrace(400)
	cfg := NewConfig(1)
	m, err := New(cfg, tr, ageTestPolicy{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.UseOracleIssue(true)
	m.Run()
	p := newFrontProfile(tr, cfg.GshareBits)
	for s, ev := range m.Events() {
		if ev.Mispredicted != p.mispredicted(int64(s)) {
			t.Fatalf("inst %d: live mispredict=%v, profile=%v", s, ev.Mispredicted, p.mispredicted(int64(s)))
		}
	}
}

// ageTestPolicy is a minimal in-package steering policy (the steer
// package cannot be imported here — it imports machine).
type ageTestPolicy struct{}

func (ageTestPolicy) Name() string { return "age-test" }
func (ageTestPolicy) Steer(v *SteerView) Decision {
	for c := 0; c < v.Clusters(); c++ {
		if v.HasSpace(c) {
			return Decision{Cluster: c}
		}
	}
	return Decision{Cluster: 0, Stall: true}
}
func (ageTestPolicy) OnIssue(seq int64, cluster int)       {}
func (ageTestPolicy) OnCommit(seq int64, view *RetireView) {}
func (ageTestPolicy) Reset()                               {}

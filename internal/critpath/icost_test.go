package critpath_test

import (
	"testing"

	"clustersim/internal/critpath"
	"clustersim/internal/machine"
	"clustersim/internal/steer"
	"clustersim/internal/workload"
)

func TestSimulatedTimeReproducesRuntime(t *testing.T) {
	// With nothing zeroed, the graph replay must reproduce the measured
	// runtime exactly — the anchor for all cost numbers.
	for _, bench := range []string{"vpr", "gzip", "mcf", "gcc"} {
		tr, _ := workload.Generate(bench, 8000, 1)
		for _, clusters := range []int{1, 4, 8} {
			m, err := machine.New(machine.NewConfig(clusters), tr, steer.DepBased{}, machine.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			m.Run()
			got, err := critpath.SimulatedTime(m, critpath.ZeroSet{})
			if err != nil {
				t.Fatal(err)
			}
			want := m.Events()[tr.Len()-1].Commit
			if got != want {
				t.Errorf("%s/%d: replay %d, measured %d (Δ=%d)", bench, clusters, got, want, got-want)
			}
		}
	}
}

func TestZeroingNeverLengthens(t *testing.T) {
	tr, _ := workload.Generate("gzip", 8000, 1)
	m, err := machine.New(machine.NewConfig(8), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	base, _ := critpath.SimulatedTime(m, critpath.ZeroSet{})
	for _, z := range []critpath.ZeroSet{
		{Fwd: true}, {Contention: true}, {MemLatency: true}, {BrMispredict: true},
		{Fwd: true, Contention: true, MemLatency: true, BrMispredict: true},
	} {
		v, err := critpath.SimulatedTime(m, z)
		if err != nil {
			t.Fatal(err)
		}
		if v > base {
			t.Errorf("zeroing %+v lengthened runtime: %d > %d", z, v, base)
		}
	}
}

func TestZeroingFwdMatchesZeroLatencyMachineDirection(t *testing.T) {
	// Sanity: on a clustered machine the forwarding cost must be
	// positive for a dependence-spreading workload.
	tr, _ := workload.Generate("gzip", 10000, 1)
	m, err := machine.New(machine.NewConfig(8), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	az := critpath.NewAnalyzer()
	defer az.Recycle()
	im, err := az.InteractionMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	ic := im.Interaction()
	if ic.CostFwd <= 0 {
		t.Errorf("forwarding cost %d, want positive", ic.CostFwd)
	}
	if ic.CostBoth < ic.CostFwd || ic.CostBoth < ic.CostCont {
		t.Errorf("removing both should dominate removing one: %+v", ic)
	}
	// On a monolithic machine the forwarding cost must be zero.
	m1, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m1.Run()
	im1, err := az.InteractionMatrix(m1)
	if err != nil {
		t.Fatal(err)
	}
	ic1 := im1.Interaction()
	if ic1.CostFwd != 0 {
		t.Errorf("monolithic forwarding cost %d, want 0", ic1.CostFwd)
	}
}

func TestInteractionErrorsOnUnrunMachine(t *testing.T) {
	tr, _ := workload.Generate("vpr", 1000, 1)
	m, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := critpath.SimulatedTime(m, critpath.ZeroSet{}); err == nil {
		t.Fatal("accepted unrun machine")
	}
}

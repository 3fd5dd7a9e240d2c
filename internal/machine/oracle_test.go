package machine_test

import (
	"reflect"
	"testing"

	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/workload"
	"clustersim/internal/xrand"
)

// policyChoices builds the policy menu for differential trials. Stateful
// policies (round-robin, mod-N) are deliberately included: the packed
// engine's cycle-skipping must never skip a cycle on which the steering
// stage would have been consulted, and a policy that mutates per Steer
// call detects any violation immediately.
func policyChoices(clusters int) []func() machine.SteerPolicy {
	return []func() machine.SteerPolicy{
		func() machine.SteerPolicy { return steer.DepBased{} },
		func() machine.SteerPolicy { return steer.Focused{} },
		func() machine.SteerPolicy { return steer.LoC{} },
		func() machine.SteerPolicy { return &steer.StallOverSteer{} },
		func() machine.SteerPolicy { return steer.NewProactive() },
		func() machine.SteerPolicy { return steer.NewRoundRobin() },
		func() machine.SteerPolicy { return steer.NewModN(clusters) },
	}
}

// TestWakeupMatchesOracle is the engine's differential property test: on
// seeded-random traces and configurations, a standalone run (New/
// NewPooled + Run: the packed wakeup-driven engine with pooled machine
// reuse and the next-event clock) must produce an Events() timeline and
// Result identical to the full-scan oracle, field for field. The machine
// under test is drawn from the pool and recycled every trial, so
// Reinit's reuse across changing cluster counts and bypass settings is
// exercised at the same time.
func TestWakeupMatchesOracle(t *testing.T) {
	r := xrand.New(777)
	clusterChoices := []int{1, 2, 4, 8}
	for trial := 0; trial < 14; trial++ {
		tr := randomTrace(r.Fork(), 400+r.Intn(1200))
		clusters := clusterChoices[r.Intn(len(clusterChoices))]
		cfg := machine.NewConfig(clusters)
		cfg.FwdLatency = r.Intn(5)
		if r.Bool(0.4) {
			cfg.BypassPerCluster = 1 + r.Intn(2)
		}
		cfg.SchedMode = machine.SchedMode(r.Intn(3))
		cfg.GroupSteering = r.Bool(0.3)
		mk := policyChoices(clusters)[r.Intn(len(policyChoices(clusters)))]
		predSeed := r.Uint64()
		hooks := func() machine.Hooks {
			return machine.Hooks{
				Binary: predictor.NewDefaultBinary(),
				LoC:    predictor.NewDefaultLoC(xrand.New(predSeed)),
			}
		}

		oracle, err := machine.New(cfg, tr, mk(), hooks())
		if err != nil {
			t.Fatal(err)
		}
		oracle.UseOracleIssue(true)
		wantRes := oracle.Run()

		wake, err := machine.NewPooled(cfg, tr, mk(), hooks())
		if err != nil {
			t.Fatal(err)
		}
		gotRes := wake.Run()

		id := func() string {
			return wantRes.ConfigName + "/" + wantRes.PolicyName
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("trial %d (%s): results diverge\n got: %+v\nwant: %+v", trial, id(), gotRes, wantRes)
		}
		got, want := wake.Events(), oracle.Events()
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d (%s): event %d diverges\n got: %+v\nwant: %+v",
					trial, id(), i, got[i], want[i])
			}
		}
		if err := machine.Check(wake); err != nil {
			t.Fatalf("trial %d (%s): %v", trial, id(), err)
		}
		machine.Recycle(wake)
	}
}

// TestPooledRunsMatchFresh reruns one realistic workload through a single
// pooled machine under several configurations and compares each run
// against a fresh machine: recycled event logs, rings and cluster state
// must never leak between runs.
func TestPooledRunsMatchFresh(t *testing.T) {
	tr, err := workload.Generate("vpr", 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, clusters := range []int{4, 1, 8, 2, 4} {
		for _, bypass := range []int{0, 1} {
			cfg := machine.NewConfig(clusters)
			cfg.BypassPerCluster = bypass
			cfg.SchedMode = machine.SchedBinaryCritical

			pooled, err := machine.NewPooled(cfg, tr, steer.Focused{}, machine.Hooks{Binary: predictor.NewDefaultBinary()})
			if err != nil {
				t.Fatal(err)
			}
			gotRes := pooled.Run()

			fresh, err := machine.New(cfg, tr, steer.Focused{}, machine.Hooks{Binary: predictor.NewDefaultBinary()})
			if err != nil {
				t.Fatal(err)
			}
			wantRes := fresh.Run()

			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("%dx/bypass=%d: pooled result diverges\n got: %+v\nwant: %+v",
					clusters, bypass, gotRes, wantRes)
			}
			got, want := pooled.Events(), fresh.Events()
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%dx/bypass=%d: event %d diverges\n got: %+v\nwant: %+v",
						clusters, bypass, i, got[i], want[i])
				}
			}
			machine.Recycle(pooled)
		}
	}
}

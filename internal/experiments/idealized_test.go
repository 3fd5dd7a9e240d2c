package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/listsched"
	"clustersim/internal/machine"
)

// TestMonoHarvestIgnoresFwd pins the fact the engine's harvest key rests
// on: a 1-cluster run harvests the same scheduler input, and trains the
// same exact tracker, at every forwarding latency, for both harvested
// stacks (depbased, and focused with the exact tracker) on every
// benchmark.
func TestMonoHarvestIgnoresFwd(t *testing.T) {
	opts := testOpts().WithDefaults()
	harvest := func(bench string, stack Stack, exact bool, fwd int) engine.Harvest {
		o := opts
		o.Fwd = fwd
		m, a, err := simulate(o, bench, 1, stack, exact)()
		if err != nil {
			t.Fatal(err)
		}
		defer machine.Recycle(m)
		return engine.Harvest{In: listsched.FromMachineRun(m), Exact: a.Exact}
	}
	for _, bench := range opts.Benchmarks {
		for _, st := range []struct {
			stack Stack
			exact bool
		}{{StackDepBased, false}, {StackFocused, true}} {
			want := harvest(bench, st.stack, st.exact, opts.Fwd)
			for _, fwd := range []int{1, 4} {
				got := harvest(bench, st.stack, st.exact, fwd)
				if !reflect.DeepEqual(got.In, want.In) {
					t.Errorf("%s/%s: harvest at fwd %d differs from fwd %d", bench, st.stack, fwd, opts.Fwd)
				}
				if st.exact && !reflect.DeepEqual(got.Exact.Counts(), want.Exact.Counts()) {
					t.Errorf("%s/%s: exact tracker at fwd %d differs from fwd %d", bench, st.stack, fwd, opts.Fwd)
				}
			}
		}
	}
}

// TestIdealizedWorkStaysShared: on a fresh engine, Figure 2 pops each
// benchmark's depbased oracle order once; the forwarding-latency sweep
// then simulates nothing and schedules only the clustered configs at
// its two new latencies, and neither it nor the replication study pops
// an order again. The same sequence at 4 workers, whose concurrent
// batches read the harvests' order memos, renders the same bytes as at
// 1 worker.
func TestIdealizedWorkStaysShared(t *testing.T) {
	pops := countPops(t)
	run := func(workers int) string {
		opts := testOpts()
		opts.Engine = engine.New(engine.Config{Workers: workers})
		opts = opts.WithDefaults()
		nb := len(opts.Benchmarks)
		var buf bytes.Buffer
		fig2, err := Figure2(opts)
		if err != nil {
			t.Fatal(err)
		}
		fig2.Render(&buf)
		want := map[string]int{}
		for _, bench := range opts.Benchmarks {
			want[bench+"/"+PriOracle] = 1
		}
		if got := pops.take(); !reflect.DeepEqual(got, want) {
			t.Errorf("-j %d: Figure 2 popped %v, want %v", workers, got, want)
		}
		before := opts.Engine.Summary()
		fwd, err := FwdSweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		fwd.Render(&buf)
		after := opts.Engine.Summary()
		if d := after.SimMisses - before.SimMisses; d != 0 {
			t.Errorf("-j %d: FwdSweep simulated %d runs after Figure 2, want 0", workers, d)
		}
		if d, want := after.SchedMisses-before.SchedMisses, int64(2*len(clusterCounts)*nb); d != want {
			t.Errorf("-j %d: FwdSweep scheduled %d variants after Figure 2, want %d", workers, d, want)
		}
		if got := pops.take(); len(got) != 0 {
			t.Errorf("-j %d: FwdSweep popped %v, want none", workers, got)
		}
		repl, err := Replication(opts)
		if err != nil {
			t.Fatal(err)
		}
		repl.Render(&buf)
		if got := pops.take(); len(got) != 0 {
			t.Errorf("-j %d: Replication popped %v, want none", workers, got)
		}
		if d := opts.Engine.Summary().SimMisses - after.SimMisses; d != 0 {
			t.Errorf("-j %d: Replication simulated %d runs, want 0", workers, d)
		}
		return buf.String()
	}
	serial, parallel := run(1), run(4)
	if serial != parallel {
		t.Errorf("output differs between -j 1 and -j 4:\n--- -j 1\n%s\n--- -j 4\n%s", serial, parallel)
	}
}

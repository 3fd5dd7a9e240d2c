package listsched_test

import (
	"fmt"
	"testing"

	"clustersim/internal/listsched"
	"clustersim/internal/machine"
)

// diffSchedules fails the test unless got and want are byte-identical.
func diffSchedules(t *testing.T, label string, got, want *listsched.Schedule) {
	t.Helper()
	if got.Makespan != want.Makespan || got.CrossEdges != want.CrossEdges || got.DyadicCross != want.DyadicCross {
		t.Errorf("%s: summary (%d,%d,%d), oracle (%d,%d,%d)", label,
			got.Makespan, got.CrossEdges, got.DyadicCross,
			want.Makespan, want.CrossEdges, want.DyadicCross)
	}
	for i := range want.Start {
		if got.Start[i] != want.Start[i] || got.Complete[i] != want.Complete[i] || got.Cluster[i] != want.Cluster[i] {
			t.Fatalf("%s: inst %d placed (%d,%d,c%d), oracle (%d,%d,c%d)", label, i,
				got.Start[i], got.Complete[i], got.Cluster[i],
				want.Start[i], want.Complete[i], want.Cluster[i])
		}
	}
}

// TestSchedulerMatchesOracle is the randomized differential gate: the
// pooled batched fast path must reproduce Run byte-for-byte on real
// machine-harvested inputs across benchmarks, cluster counts, forwarding
// latencies and priority kinds — on one Scheduler recycled throughout,
// so pooled-state leakage between inputs would also surface here.
func TestSchedulerMatchesOracle(t *testing.T) {
	sched := listsched.NewScheduler()
	defer sched.Recycle()
	for _, bench := range []string{"vpr", "gcc", "mcf"} {
		for _, n := range []int{700, 3000} {
			in, _ := prepare(t, bench, n)
			oracle := listsched.NewOracle(in)
			exact := trainedExact(in, oracle)
			loc16, err := listsched.NewLoCPriority(exact, 16)
			if err != nil {
				t.Fatal(err)
			}
			// Level count 0: unlimited LoC precision.
			locUnl, err := listsched.NewLoCPriority(exact, 0)
			if err != nil {
				t.Fatal(err)
			}
			binary, err := listsched.NewBinaryPriority(exact, 0)
			if err != nil {
				t.Fatal(err)
			}
			var variants []listsched.Variant
			for _, clusters := range []int{1, 2, 4, 8} {
				for _, fwd := range []int{0, 2, 4} {
					cfg := listsched.ConfigFor(machine.NewConfig(clusters))
					cfg.Fwd = fwd
					for _, pri := range []listsched.Priority{oracle, loc16, locUnl, binary} {
						variants = append(variants, listsched.Variant{Config: cfg, Pri: pri})
					}
				}
			}
			got, err := sched.ScheduleVariants(in, variants)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range variants {
				want, err := listsched.Run(in, v.Config, v.Pri)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/%d v%d %+v", bench, n, j, v.Config)
				if err := listsched.Check(in, v.Config, got[j]); err != nil {
					t.Fatalf("%s: fast schedule violates invariants: %v", label, err)
				}
				diffSchedules(t, label, got[j], want)
			}
		}
	}
}

// TestCheckAcrossConfigsAndPriorities is the property test: Check must
// pass for both scheduler paths on randomized workload traces across all
// three Table-1 cluster configurations and all three priority kinds.
func TestCheckAcrossConfigsAndPriorities(t *testing.T) {
	sched := listsched.NewScheduler()
	defer sched.Recycle()
	for _, bench := range []string{"gzip", "twolf", "perl"} {
		in, _ := prepare(t, bench, 2500)
		oracle := listsched.NewOracle(in)
		exact := trainedExact(in, oracle)
		loc16, err := listsched.NewLoCPriority(exact, 16)
		if err != nil {
			t.Fatal(err)
		}
		binary, err := listsched.NewBinaryPriority(exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		pris := map[string]listsched.Priority{"oracle": oracle, "loc16": loc16, "binary": binary}
		for _, clusters := range []int{2, 4, 8} { // 2x4w, 4x2w, 8x1w
			cfg := listsched.ConfigFor(machine.NewConfig(clusters))
			for name, pri := range pris {
				sOracle, err := listsched.Run(in, cfg, pri)
				if err != nil {
					t.Fatal(err)
				}
				if err := listsched.Check(in, cfg, sOracle); err != nil {
					t.Errorf("%s %dx %s oracle path: %v", bench, clusters, name, err)
				}
				sFast, err := sched.Schedule(in, cfg, pri)
				if err != nil {
					t.Fatal(err)
				}
				if err := listsched.Check(in, cfg, sFast); err != nil {
					t.Errorf("%s %dx %s fast path: %v", bench, clusters, name, err)
				}
			}
		}
	}
}

// TestCheckRejectsCorruption guards the verifier itself: perturbing a
// valid schedule must trip Check.
func TestCheckRejectsCorruption(t *testing.T) {
	in, _ := prepare(t, "vpr", 1200)
	cfg := listsched.ConfigFor(machine.NewConfig(4))
	base, err := listsched.Run(in, cfg, listsched.NewOracle(in))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(s *listsched.Schedule)) error {
		c := &listsched.Schedule{
			Start:       append([]int64(nil), base.Start...),
			Complete:    append([]int64(nil), base.Complete...),
			Cluster:     append([]int16(nil), base.Cluster...),
			Makespan:    base.Makespan,
			CrossEdges:  base.CrossEdges,
			DyadicCross: base.DyadicCross,
		}
		mutate(c)
		return listsched.Check(in, cfg, c)
	}
	if err := corrupt(func(s *listsched.Schedule) {}); err != nil {
		t.Fatalf("unmutated copy rejected: %v", err)
	}
	cases := map[string]func(s *listsched.Schedule){
		"early start":    func(s *listsched.Schedule) { s.Start[100]--; s.Complete[100]-- },
		"latency":        func(s *listsched.Schedule) { s.Complete[100]++ },
		"cluster range":  func(s *listsched.Schedule) { s.Cluster[100] = int16(cfg.Clusters) },
		"makespan":       func(s *listsched.Schedule) { s.Makespan++ },
		"cross recount":  func(s *listsched.Schedule) { s.CrossEdges++ },
		"dyadic recount": func(s *listsched.Schedule) { s.DyadicCross++ },
		"cluster move":   func(s *listsched.Schedule) { s.Cluster[100] = (s.Cluster[100] + 1) % int16(cfg.Clusters) },
	}
	for name, mutate := range cases {
		if corrupt(mutate) == nil {
			t.Errorf("%s corruption passed Check", name)
		}
	}
}

// TestScheduleVariantsSurvivesRecycle pins the pooling contract:
// schedules handed out earlier stay intact after the Scheduler is
// recycled and reused on a different input.
func TestScheduleVariantsSurvivesRecycle(t *testing.T) {
	in1, _ := prepare(t, "vpr", 2000)
	cfg := listsched.ConfigFor(machine.NewConfig(4))
	sched := listsched.NewScheduler()
	first, err := sched.Schedule(in1, cfg, listsched.NewOracle(in1))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]int64(nil), first.Start...)
	sched.Recycle()

	in2, _ := prepare(t, "gcc", 3000)
	sched2 := listsched.NewScheduler()
	if _, err := sched2.Schedule(in2, cfg, listsched.NewOracle(in2)); err != nil {
		t.Fatal(err)
	}
	sched2.Recycle()
	for i := range snapshot {
		if first.Start[i] != snapshot[i] {
			t.Fatalf("schedule mutated at %d after recycle/reuse", i)
		}
	}
	if err := listsched.Check(in1, cfg, first); err != nil {
		t.Fatalf("first schedule no longer checks: %v", err)
	}
}

// TestSchedulerErrors mirrors Run's validation on the fast path.
func TestSchedulerErrors(t *testing.T) {
	in, _ := prepare(t, "vpr", 500)
	sched := listsched.NewScheduler()
	defer sched.Recycle()
	if _, err := sched.Schedule(in, listsched.Config{}, listsched.NewOracle(in)); err == nil {
		t.Error("accepted zero config")
	}
	bad := in
	bad.Latency = bad.Latency[:10]
	if _, err := sched.Schedule(bad, listsched.ConfigFor(machine.NewConfig(1)), listsched.NewOracle(in)); err == nil {
		t.Error("accepted mis-sized input")
	}
}

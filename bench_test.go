package clustersim

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper (each regenerates the corresponding experiment at reduced scale;
// run `cmd/clustersim all` for full-scale tables), plus raw simulator
// throughput benchmarks.
//
//	go test -bench=. -benchmem

import (
	"testing"

	"clustersim/internal/critpath"
	"clustersim/internal/experiments"
	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
)

// benchOpts keeps per-iteration work bounded so the harness completes in
// minutes; the drivers are identical to the full-scale CLI runs.
func benchOpts() experiments.Options {
	return experiments.Options{Insts: 15_000}
}

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ConfigTable(discard{})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2Attribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AttributeFigure2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 5 and 6 come from the same focused-policy runs; the driver
// produces both.
func BenchmarkFigure5And6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure14(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure15(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoCOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LoCOracle(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsumers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Consumers(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFwdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FwdSweep(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStallSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StallSweep(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSlackStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SlackStudy(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectorCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DetectorCompare(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WindowSweep(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBandwidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BandwidthSweep(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Replication(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupSteer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GroupSteer(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictorSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PredictorSweep(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkICost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ICost(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// Raw simulator throughput: instructions simulated per second for each
// configuration under the final policy stack.
func benchSim(b *testing.B, clusters int, policy string) {
	tr, err := GenerateTrace("vpr", 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewSim(NewConfig(clusters), tr, SimOptions{Policy: policy})
		if err != nil {
			b.Fatal(err)
		}
		sim.Run()
	}
	b.SetBytes(0)
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "insts/s")
}

func BenchmarkSim1x8w(b *testing.B) { benchSim(b, 1, "focused") }
func BenchmarkSim2x4w(b *testing.B) { benchSim(b, 2, "focused") }
func BenchmarkSim4x2w(b *testing.B) { benchSim(b, 4, "focused") }
func BenchmarkSim8x1w(b *testing.B) { benchSim(b, 8, "focused") }

func BenchmarkSim8x1wProactive(b *testing.B) { benchSim(b, 8, "proactive") }

// benchMachine times the bare machine hot loop on the Figure-4 focused
// stack, comparing the wakeup-driven scheduler with pooled machines
// (oracle=false) against the preserved full-scan reference loop with a
// fresh machine per run (oracle=true). The byte-identity of the two is
// gated by TestSimulateVariantsMatchesSoloAndOracle (internal/machine);
// end-to-end timing lives in perfbench/.
func benchMachine(b *testing.B, clusters int, oracle bool) {
	tr, err := GenerateTrace("vpr", 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.NewConfig(clusters)
	cfg.SchedMode = machine.SchedBinaryCritical
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hooks := machine.Hooks{Binary: predictor.NewDefaultBinary()}
		var m *machine.Machine
		var err error
		if oracle {
			m, err = machine.New(cfg, tr, steer.Focused{}, hooks)
		} else {
			m, err = machine.NewPooled(cfg, tr, steer.Focused{}, hooks)
		}
		if err != nil {
			b.Fatal(err)
		}
		if oracle {
			m.UseOracleIssue(true)
		}
		m.Run()
		if !oracle {
			machine.Recycle(m)
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "insts/s")
}

func BenchmarkMachineWakeup1x(b *testing.B) { benchMachine(b, 1, false) }
func BenchmarkMachineWakeup2x(b *testing.B) { benchMachine(b, 2, false) }
func BenchmarkMachineWakeup4x(b *testing.B) { benchMachine(b, 4, false) }
func BenchmarkMachineOracle1x(b *testing.B) { benchMachine(b, 1, true) }
func BenchmarkMachineOracle2x(b *testing.B) { benchMachine(b, 2, true) }
func BenchmarkMachineOracle4x(b *testing.B) { benchMachine(b, 4, true) }

// benchCritReplay times the full 2^4 zero-set lattice on a completed
// run, comparing the fused single-pass replay on a pooled analyzer
// (fused=true) against the per-scenario SimulatedTime oracle (16
// independent forward passes, each allocating fresh scratch). Their
// equality is gated by TestFusedReplayMatchesOracle (internal/critpath).
func benchCritReplay(b *testing.B, clusters int, fused bool) {
	tr, err := GenerateTrace("vpr", 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(machine.NewConfig(clusters), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		b.Fatal(err)
	}
	m.Run()
	zeros := make([]critpath.ZeroSet, critpath.NumScenarios)
	for mask := range zeros {
		zeros[mask] = critpath.MaskZeroSet(mask)
	}
	az := critpath.NewAnalyzer()
	defer az.Recycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fused {
			if _, err := az.ReplayScenarios(m, zeros); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, z := range zeros {
				if _, err := critpath.SimulatedTime(m, z); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(tr.Len()*critpath.NumScenarios*b.N)/b.Elapsed().Seconds(), "node-insts/s")
}

func BenchmarkCritReplayFused1x(b *testing.B)  { benchCritReplay(b, 1, true) }
func BenchmarkCritReplayFused4x(b *testing.B)  { benchCritReplay(b, 4, true) }
func BenchmarkCritReplayOracle1x(b *testing.B) { benchCritReplay(b, 1, false) }
func BenchmarkCritReplayOracle4x(b *testing.B) { benchCritReplay(b, 4, false) }

// BenchmarkCritAnalyzePooled times the backward walk (breakdown +
// on-path bitset) on a recycled analyzer — the allocation-free path the
// engine's analysis artifacts use.
func BenchmarkCritAnalyzePooled(b *testing.B) {
	tr, err := GenerateTrace("vpr", 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(machine.NewConfig(4), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		b.Fatal(err)
	}
	m.Run()
	az := critpath.NewAnalyzer()
	defer az.Recycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := az.AnalyzeRun(m); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSchedInput harvests scheduler constraints from one monolithic
// dep-based run, the input every idealized-scheduling study starts from.
func benchSchedInput(b *testing.B) listsched.Input {
	tr, err := GenerateTrace("vpr", 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		b.Fatal(err)
	}
	m.Run()
	return listsched.FromMachineRun(m)
}

// BenchmarkSchedRun times the reference single-variant Run path on the
// 8x1w oracle schedule (fresh heap/lane/pending state every call).
func BenchmarkSchedRun(b *testing.B) {
	in := benchSchedInput(b)
	oracle := listsched.NewOracle(in)
	cfg := listsched.ConfigFor(machine.NewConfig(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := listsched.Run(in, cfg, oracle); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(in.Trace.Len()*b.N)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSchedVariants times the pooled fused engine on the
// loc-oracle experiment's batch shape: the monolithic oracle baseline,
// then each of 2, 4 and 8 clusters under the oracle, 16-level LoC,
// unlimited LoC and binary priorities. The dependence CSR is built once
// and each priority's issue order popped once; every config places along
// its priority's order. The input comes from a focused monolithic run
// with exact criticality tracking, as the experiment's does. Fused-vs-
// Run equality is gated by TestSchedulerMatchesOracle (internal/listsched).
func BenchmarkSchedVariants(b *testing.B) {
	tr, err := GenerateTrace("vpr", 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	mono, err := NewSim(NewConfig(1), tr, SimOptions{Policy: "focused", TrackExact: true})
	if err != nil {
		b.Fatal(err)
	}
	mono.Run()
	in := listsched.FromMachineRun(mono.m)
	oracle := listsched.NewOracle(in)
	loc16, err := listsched.NewLoCPriority(mono.Exact(), 16)
	if err != nil {
		b.Fatal(err)
	}
	locUnl, err := listsched.NewLoCPriority(mono.Exact(), 0)
	if err != nil {
		b.Fatal(err)
	}
	binary, err := listsched.NewBinaryPriority(mono.Exact(), 0)
	if err != nil {
		b.Fatal(err)
	}
	variants := []listsched.Variant{{Config: listsched.ConfigFor(machine.NewConfig(1)), Pri: oracle}}
	for _, k := range []int{2, 4, 8} {
		for _, pri := range []listsched.Priority{oracle, loc16, locUnl, binary} {
			variants = append(variants, listsched.Variant{Config: listsched.ConfigFor(machine.NewConfig(k)), Pri: pri})
		}
	}
	sch := listsched.NewScheduler()
	defer sch.Recycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.ScheduleVariants(in, variants); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(in.Trace.Len()*len(variants)*b.N)/b.Elapsed().Seconds(), "variant-insts/s")
}

// BenchmarkSchedReplicated times the pooled replicated path on the
// replication experiment's batch: oracle-priority replicated schedules
// on 2, 4 and 8 clusters along one shared issue order. Equality with
// RunReplicated is gated by TestSchedulerMatchesOracle.
func BenchmarkSchedReplicated(b *testing.B) {
	in := benchSchedInput(b)
	oracle := listsched.NewOracle(in)
	var variants []listsched.Variant
	for _, k := range []int{2, 4, 8} {
		variants = append(variants, listsched.Variant{Config: listsched.ConfigFor(machine.NewConfig(k)), Pri: oracle})
	}
	sch := listsched.NewScheduler()
	defer sch.Recycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.ScheduleReplicated(in, variants); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(in.Trace.Len()*len(variants)*b.N)/b.Elapsed().Seconds(), "variant-insts/s")
}

func BenchmarkListScheduler(b *testing.B) {
	tr, err := GenerateTrace("gzip", 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	mono, err := NewSim(NewConfig(1), tr, SimOptions{Policy: "depbased"})
	if err != nil {
		b.Fatal(err)
	}
	mono.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mono.IdealizedSchedule(NewConfig(8)); err != nil {
			b.Fatal(err)
		}
	}
}

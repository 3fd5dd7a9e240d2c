package critpath_test

import (
	"fmt"
	"math"
	"testing"

	"clustersim/internal/critpath"
	"clustersim/internal/isa"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
	"clustersim/internal/xrand"
)

func TestSlackChainIsZero(t *testing.T) {
	// Every link of a pure dependent chain has zero slack: delaying any
	// completion delays the end.
	insts := make([]isa.Inst, 200)
	for i := range insts {
		insts[i] = isa.Inst{PC: uint64(0x100 + 4*(i%8)), Op: isa.IntALU,
			Dst: 1, Src: [2]isa.Reg{1, isa.NoReg}}
	}
	insts[0].Src[0] = isa.NoReg
	tr := trace.Rebuild(insts)
	m, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	slack, err := critpath.ComputeSlack(m)
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for _, s := range slack[:190] { // the last few are commit-edge bounded
		if s == 0 {
			zero++
		}
	}
	if zero < 185 {
		t.Fatalf("only %d/190 chain links have zero slack", zero)
	}
}

func TestSlackParallelWorkIsLoose(t *testing.T) {
	// One long chain plus independent one-off instructions: the chain
	// has zero slack, the independents have lots.
	var insts []isa.Inst
	for i := 0; i < 150; i++ {
		insts = append(insts, isa.Inst{PC: 0x100, Op: isa.IntALU, Dst: 1,
			Src: [2]isa.Reg{1, isa.NoReg}})
		insts = append(insts, isa.Inst{PC: 0x200, Op: isa.IntALU,
			Dst: isa.Reg(2 + i%40), Src: [2]isa.Reg{isa.NoReg, isa.NoReg}})
	}
	insts[0].Src[0] = isa.NoReg
	tr := trace.Rebuild(insts)
	m, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	slack, err := critpath.ComputeSlack(m)
	if err != nil {
		t.Fatal(err)
	}
	var chainSum, looseSum, chainN, looseN int64
	for i := 0; i < len(slack)-20; i++ {
		if tr.Insts[i].PC == 0x100 {
			chainSum += slack[i]
			chainN++
		} else {
			looseSum += slack[i]
			looseN++
		}
	}
	if chainN == 0 || looseN == 0 {
		t.Fatal("bad test setup")
	}
	if chainSum/chainN >= looseSum/looseN {
		t.Fatalf("chain slack %d not below independent slack %d",
			chainSum/chainN, looseSum/looseN)
	}
	if looseSum/looseN < 5 {
		t.Fatalf("independent instructions have implausibly little slack: %d", looseSum/looseN)
	}
}

func TestSlackCriticalPathInstructionsHaveZeroSlack(t *testing.T) {
	// The walked critical path and the slack analysis must agree: an
	// instruction on the last-arriving chain has (near-)zero slack.
	tr, _ := workload.Generate("gzip", 10000, 1)
	m, err := machine.New(machine.NewConfig(4), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	a, err := critpath.AnalyzeRun(m)
	if err != nil {
		t.Fatal(err)
	}
	slack, err := critpath.ComputeSlack(m)
	if err != nil {
		t.Fatal(err)
	}
	var onPath, zeroish int
	for i := range slack {
		if !a.OnPath.Get(int64(i)) {
			continue
		}
		onPath++
		if slack[i] <= 1 {
			zeroish++
		}
	}
	if onPath == 0 {
		t.Fatal("empty critical path")
	}
	if frac := float64(zeroish) / float64(onPath); frac < 0.95 {
		t.Fatalf("only %.0f%% of critical-path instructions have ~zero slack", frac*100)
	}
}

// TestSlackAgreesWithWalkerAcrossPolicies cross-checks ComputeSlack
// against the backward walker on clustered machines driven by *stateful*
// steering policies (stall-over-steer's per-cluster stall bookkeeping,
// proactive's load-balance history) with the online detector training LoC
// predictors: every instruction the walk marks on-path must have
// (near-)zero global slack, whatever policy shaped the run.
func TestSlackAgreesWithWalkerAcrossPolicies(t *testing.T) {
	tr, err := workload.Generate("gcc", 8000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		clusters int
		pol      func() machine.SteerPolicy
	}{
		{2, func() machine.SteerPolicy { return &steer.StallOverSteer{} }},
		{4, func() machine.SteerPolicy { return &steer.StallOverSteer{} }},
		{4, func() machine.SteerPolicy { return steer.NewProactive() }},
	}
	for _, tc := range cases {
		pol := tc.pol()
		t.Run(fmt.Sprintf("%dx-%s", tc.clusters, pol.Name()), func(t *testing.T) {
			cfg := machine.NewConfig(tc.clusters)
			cfg.SchedMode = machine.SchedLoC
			binary := predictor.NewDefaultBinary()
			loc := predictor.NewDefaultLoC(xrand.New(7))
			det := critpath.NewDetector(binary, loc)
			m, err := machine.New(cfg, tr, pol, machine.Hooks{
				Binary: binary, LoC: loc, OnEpoch: det.OnEpoch,
			})
			if err != nil {
				t.Fatal(err)
			}
			det.Bind(m)
			m.Run()
			a, err := critpath.AnalyzeRun(m)
			if err != nil {
				t.Fatal(err)
			}
			slack, err := critpath.ComputeSlack(m)
			if err != nil {
				t.Fatal(err)
			}
			var onPath, zeroish int
			for i := range slack {
				if !a.OnPath.Get(int64(i)) {
					continue
				}
				onPath++
				if slack[i] <= 1 {
					zeroish++
				}
			}
			if onPath == 0 {
				t.Fatal("empty critical path")
			}
			if frac := float64(zeroish) / float64(onPath); frac < 0.95 {
				t.Fatalf("only %.1f%% of critical-path instructions have ~zero slack (%d/%d)",
					frac*100, zeroish, onPath)
			}
		})
	}
}

func TestSlackSummaryOnWorkload(t *testing.T) {
	tr, _ := workload.Generate("vpr", 20000, 1)
	m, err := machine.New(machine.NewConfig(4), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	slack, err := critpath.ComputeSlack(m)
	if err != nil {
		t.Fatal(err)
	}
	s := critpath.SummarizeSlack(m, slack)
	if s.ZeroFrac <= 0 || s.ZeroFrac >= 1 {
		t.Errorf("zero-slack fraction %v", s.ZeroFrac)
	}
	// The paper's premise: most dataflow tolerates the forwarding hop.
	if s.GEFwdFrac < 0.5 {
		t.Errorf("only %.0f%% of instructions tolerate one forwarding hop", s.GEFwdFrac*100)
	}
	if s.MeanSlack <= 0 {
		t.Errorf("mean slack %v", s.MeanSlack)
	}
	// Mispredicted branches must overwhelmingly have zero slack.
	if s.BimodalBranchFrac < 0.8 {
		t.Errorf("only %.0f%% of mispredicted branches have zero slack", s.BimodalBranchFrac*100)
	}
	// And slack must vary a lot within static instructions (the paper's
	// argument for LoC over slack).
	if s.StaticStdDev < 1 {
		t.Errorf("per-PC slack stddev %v — implausibly static", s.StaticStdDev)
	}
}

// TestSlackSummaryReproducible: repeated summaries of one finished run
// must be bit-identical, since they are cached as bytes.
// Summing per-PC deviations in map order once gave several distinct
// StaticStdDev values per benchmark over 200 calls.
func TestSlackSummaryReproducible(t *testing.T) {
	for _, bench := range []string{"gzip", "vpr", "mcf"} {
		tr, _ := workload.Generate(bench, 12000, 1)
		m, err := machine.New(machine.NewConfig(4), tr, steer.DepBased{}, machine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		slack, err := critpath.ComputeSlack(m)
		if err != nil {
			t.Fatal(err)
		}
		want := critpath.SummarizeSlack(m, slack)
		for i := 0; i < 100; i++ {
			got := critpath.SummarizeSlack(m, slack)
			if got != want || math.Float64bits(got.StaticStdDev) != math.Float64bits(want.StaticStdDev) {
				t.Fatalf("%s: call %d gave %+v, first call %+v", bench, i, got, want)
			}
		}
	}
}

func TestSlackErrorsOnEmptyRun(t *testing.T) {
	tr, _ := workload.Generate("vpr", 1000, 1)
	m, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := critpath.ComputeSlack(m); err == nil {
		t.Fatal("ComputeSlack accepted an unrun machine")
	}
}

// TestAnalyzerSlackMatchesPackageSlack: one pooled analyzer reused across
// runs of different lengths, after fused replays that grow its arrays,
// summarizes slack bit for bit as the package-level allocating functions
// do, and allocates nothing once it has seen a run as long.
func TestAnalyzerSlackMatchesPackageSlack(t *testing.T) {
	az := critpath.NewAnalyzer()
	defer az.Recycle()
	for _, c := range []struct {
		bench    string
		n        int
		clusters int
	}{{"gcc", 9000, 4}, {"vpr", 2000, 1}, {"mcf", 6000, 8}, {"gcc", 9000, 4}} {
		tr, _ := workload.Generate(c.bench, c.n, 1)
		m, err := machine.New(machine.NewConfig(c.clusters), tr, steer.DepBased{}, machine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		if _, err := az.InteractionMatrix(m); err != nil {
			t.Fatal(err)
		}
		slack, err := critpath.ComputeSlack(m)
		if err != nil {
			t.Fatal(err)
		}
		want := critpath.SummarizeSlack(m, slack)
		got, err := az.Slack(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || math.Float64bits(got.StaticStdDev) != math.Float64bits(want.StaticStdDev) {
			t.Fatalf("%s/%d: pooled summary %+v, package summary %+v", c.bench, c.n, got, want)
		}
		if allocs := testing.AllocsPerRun(3, func() { az.Slack(m) }); allocs != 0 {
			t.Errorf("%s/%d: warm pooled slack allocated %.0f times per run", c.bench, c.n, allocs)
		}
	}
}

package critpath_test

import (
	"errors"
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

// goldenCase mirrors the machine package's golden matrix (vpr/gcc ×
// 1/2/4 clusters × a plain and a stateful policy variant), so the fused
// replay is pinned to the oracle on exactly the committed scenarios.
type goldenCase struct {
	key   string
	setup func(cfg *machine.Config) (machine.SteerPolicy, machine.Hooks)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"age-dep", func(cfg *machine.Config) (machine.SteerPolicy, machine.Hooks) {
			return steer.DepBased{}, machine.Hooks{}
		}},
		{"loc-stall-bypass1", func(cfg *machine.Config) (machine.SteerPolicy, machine.Hooks) {
			cfg.SchedMode = machine.SchedLoC
			cfg.BypassPerCluster = 1
			return &steer.StallOverSteer{}, machine.Hooks{
				Binary: predictor.NewDefaultBinary(),
				LoC:    predictor.NewDefaultLoC(xrand.New(42)),
			}
		}},
	}
}

// TestFusedReplayMatchesOracle is the differential gate of the fused
// path: for every zero-set of the full 2^4 lattice, one batched
// ReplayScenarios pass must return byte-identical runtimes to the
// per-scenario SimulatedTime oracle — on every golden configuration.
func TestFusedReplayMatchesOracle(t *testing.T) {
	az := critpath.NewAnalyzer()
	defer az.Recycle()
	zeros := make([]critpath.ZeroSet, critpath.NumScenarios)
	for mask := range zeros {
		zeros[mask] = critpath.MaskZeroSet(mask)
	}
	for _, bench := range []string{"vpr", "gcc"} {
		tr, err := workload.Generate(bench, 1500, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, clusters := range []int{1, 2, 4} {
			for _, gc := range goldenCases() {
				cfg := machine.NewConfig(clusters)
				pol, hooks := gc.setup(&cfg)
				m, err := machine.New(cfg, tr, pol, hooks)
				if err != nil {
					t.Fatal(err)
				}
				m.Run()
				name := bench + "/" + cfg.Name() + "/" + gc.key

				want := make([]int64, critpath.NumScenarios)
				for mask, z := range zeros {
					if want[mask], err = critpath.SimulatedTime(m, z); err != nil {
						t.Fatalf("%s: oracle mask %d: %v", name, mask, err)
					}
				}
				got, err := az.ReplayScenarios(m, zeros)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for mask := range zeros {
					if got[mask] != want[mask] {
						t.Errorf("%s: mask %04b: fused %d, oracle %d",
							name, mask, got[mask], want[mask])
					}
				}
				// The unmodified scenario must reproduce the measured runtime.
				if measured := m.Events()[tr.Len()-1].Commit; got[0] != measured {
					t.Errorf("%s: replay base %d != measured %d", name, got[0], measured)
				}

				// The matrix and the legacy pair derive from the same lattice.
				im, err := az.InteractionMatrix(m)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for mask := range zeros {
					if im.Runtime[mask] != want[mask] {
						t.Errorf("%s: matrix runtime mask %04b: %d != %d",
							name, mask, im.Runtime[mask], want[mask])
					}
					if im.Cost[mask] != want[0]-want[mask] {
						t.Errorf("%s: matrix cost mask %04b inconsistent", name, mask)
					}
				}
				ic := im.Interaction()
				if fb, cb := 1<<critpath.CompFwd, 1<<critpath.CompContention; ic.ICost !=
					(want[0]-want[fb|cb])-(want[0]-want[fb])-(want[0]-want[cb]) {
					t.Errorf("%s: ICost %d inconsistent with oracle lattice", name, ic.ICost)
				}
			}
		}
	}
}

// TestAnalyzerReuse exercises pooled-state reuse across runs of different
// sizes: a recycled analyzer must produce exactly what fresh package-level
// calls produce, and previously returned ReplayScenarios slices must not
// be clobbered by later calls.
func TestAnalyzerReuse(t *testing.T) {
	az := critpath.NewAnalyzer()
	defer az.Recycle()
	lattice := []critpath.ZeroSet{{}, {Fwd: true}, {Contention: true}, {Fwd: true, Contention: true}}
	var prevRS, prevWant []int64
	// Large then small then large: every scratch array shrinks and regrows.
	for _, n := range []int{4000, 600, 2500} {
		tr, err := workload.Generate("gcc", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(machine.NewConfig(2), tr, steer.DepBased{}, machine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()

		pooled, err := az.AnalyzeRun(m)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := critpath.AnalyzeRun(m)
		if err != nil {
			t.Fatal(err)
		}
		if pooled.Breakdown != fresh.Breakdown || pooled.Steps != fresh.Steps {
			t.Fatalf("n=%d: pooled walk diverged from fresh walk", n)
		}
		if pooled.OnPath.Count() != fresh.OnPath.Count() {
			t.Fatalf("n=%d: pooled OnPath count %d != fresh %d",
				n, pooled.OnPath.Count(), fresh.OnPath.Count())
		}
		for i := int64(0); i < fresh.OnPath.Len(); i++ {
			if pooled.OnPath.Get(i) != fresh.OnPath.Get(i) {
				t.Fatalf("n=%d: OnPath bit %d differs", n, i)
			}
		}

		rs, err := az.ReplayScenarios(m, lattice)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int64, len(lattice))
		for s, z := range lattice {
			if want[s], err = critpath.SimulatedTime(m, z); err != nil {
				t.Fatal(err)
			}
			if rs[s] != want[s] {
				t.Fatalf("n=%d: pooled replay scenario %d: %d != %d", n, s, rs[s], want[s])
			}
		}
		// The previous call's returned slice must not have been clobbered
		// by this call (ReplayScenarios copies out of pooled storage).
		for s := range prevRS {
			if prevRS[s] != prevWant[s] {
				t.Fatalf("n=%d: earlier ReplayScenarios result mutated by reuse", n)
			}
		}
		prevRS, prevWant = rs, want
	}
}

// TestWalkTruncationReturnsError pins the bugfix for silently truncated
// walks: when the defensive step bound trips, Analyze must fail loudly
// with ErrTruncated instead of returning a partial Analysis.
func TestWalkTruncationReturnsError(t *testing.T) {
	tr, err := workload.Generate("vpr", 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := runMachine(t, 2, tr, steer.DepBased{}, machine.Hooks{})
	restore := critpath.SetMaxStepsPerInst(0)
	defer restore()
	if _, err := critpath.AnalyzeRun(m); !errors.Is(err, critpath.ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	restore()
	// At the real bound the same walk succeeds — the bound is defensive.
	if _, err := critpath.AnalyzeRun(m); err != nil {
		t.Fatalf("walk failed at default bound: %v", err)
	}
}

// TestWindowedWalkTotalEqualsSpan pins the boundary-attribution bugfix:
// for ANY window [from, to), the walk attributes exactly the cycles from
// time zero to the window's last commit — pre-window residue lands in the
// explicit Boundary bucket instead of vanishing, and whole-run walks
// never use it.
func TestWindowedWalkTotalEqualsSpan(t *testing.T) {
	for _, bench := range []string{"vpr", "gcc"} {
		tr, err := workload.Generate(bench, 6000, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := runMachine(t, 2, tr, steer.DepBased{}, machine.Hooks{})
		ev := m.Events()
		n := int64(tr.Len())
		windows := [][2]int64{
			{0, n}, {0, n / 2}, {1, n}, {n / 3, 2 * n / 3},
			{n - 1, n}, {7, 8}, {0, 1}, {n / 2, n},
		}
		for _, w := range windows {
			a, err := critpath.Analyze(m, w[0], w[1])
			if err != nil {
				t.Fatalf("%s %v: %v", bench, w, err)
			}
			want := ev[w[1]-1].Commit
			if got := a.Breakdown.Total(); got != want {
				t.Errorf("%s window %v: attributed %d cycles, want %d (Δ=%d)\n%+v",
					bench, w, got, want, got-want, a.Breakdown)
			}
			if w[0] == 0 && a.Breakdown.Boundary != 0 {
				t.Errorf("%s window %v: whole-range walk booked %d boundary cycles",
					bench, w, a.Breakdown.Boundary)
			}
		}
	}
}

// TestMemZeroingUsesConfiguredHitLatency pins the hitLat bugfix: the
// MemLatency idealization must reduce loads to the *configured* L1 hit
// latency, not the ISA default frozen at package init. A single missing
// load on the critical chain must therefore cost exactly the L2 penalty —
// under a non-default hit time, the stale constant would over-idealize by
// the difference.
func TestMemZeroingUsesConfiguredHitLatency(t *testing.T) {
	insts := make([]isa.Inst, 0, 101)
	ld := mk(isa.Load, 1)
	ld.Addr = 0x4000
	insts = append(insts, ld)
	for i := 0; i < 100; i++ {
		insts = append(insts, mk(isa.IntALU, 1, 1))
	}
	for i := range insts {
		insts[i].PC = uint64(0x100 + 4*i)
	}
	tr := trace.Rebuild(insts)

	cfg := machine.NewConfig(1)
	cfg.L1.HitCycles = 6 // non-default (default is 2)
	m, err := machine.New(cfg, tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()

	base, err := critpath.SimulatedTime(m, critpath.ZeroSet{})
	if err != nil {
		t.Fatal(err)
	}
	zeroed, err := critpath.SimulatedTime(m, critpath.ZeroSet{MemLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	// The cold load misses and heads the only dependence chain: idealizing
	// memory latency removes exactly the miss penalty, no more.
	if got, want := base-zeroed, int64(cfg.L1.MissCycles); got != want {
		t.Fatalf("mem zeroing removed %d cycles, want exactly the %d-cycle L2 penalty (hitLat honored?)",
			got, want)
	}
	// And the fused path agrees on the same machine.
	az := critpath.NewAnalyzer()
	defer az.Recycle()
	rs, err := az.ReplayScenarios(m, []critpath.ZeroSet{{}, {MemLatency: true}})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != base || rs[1] != zeroed {
		t.Fatalf("fused replay [%d %d] != oracle [%d %d]", rs[0], rs[1], base, zeroed)
	}
}

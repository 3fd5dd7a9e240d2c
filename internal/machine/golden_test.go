package machine_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/workload"
	"clustersim/internal/xrand"
)

// updateGoldens regenerates the committed golden files using the scan
// oracle issue loop:
//
//	go test ./internal/machine -run Golden -update-goldens
//
// The regular test run replays every scenario through the packed engine
// (New + Run) and requires byte-for-byte equality, so the goldens pin
// cycle-exact equivalence between the engine and the oracle across
// machine shapes, steering policies, scheduling modes and bypass limits.
var updateGoldens = flag.Bool("update-goldens", false,
	"regenerate golden files with the scan oracle issue loop")

const goldenInsts = 1500

// goldenVariant is one policy/scheduler/bypass combination replayed per
// benchmark and cluster count.
type goldenVariant struct {
	key   string
	setup func(cfg *machine.Config) (machine.SteerPolicy, machine.Hooks)
}

func goldenVariants() []goldenVariant {
	return []goldenVariant{
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

func TestGoldenReplication(t *testing.T) {
	for _, bench := range []string{"vpr", "gcc"} {
		tr, err := workload.Generate(bench, goldenInsts, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, clusters := range []int{1, 2, 4} {
			for _, v := range goldenVariants() {
				name := fmt.Sprintf("%s_%dx_%s", bench, clusters, v.key)
				t.Run(name, func(t *testing.T) {
					cfg := machine.NewConfig(clusters)
					pol, hooks := v.setup(&cfg)
					m, err := machine.New(cfg, tr, pol, hooks)
					if err != nil {
						t.Fatal(err)
					}
					if *updateGoldens {
						m.UseOracleIssue(true)
					}
					res := m.Run()
					if err := machine.Check(m); err != nil {
						t.Fatal(err)
					}

					var buf bytes.Buffer
					writeGolden(&buf, m, res)
					path := filepath.Join("testdata", "golden", name+".golden")
					if *updateGoldens {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden (regenerate with -update-goldens): %v", err)
					}
					if !bytes.Equal(buf.Bytes(), want) {
						t.Fatalf("golden drift in %s:\n%s", path, firstDiff(buf.Bytes(), want))
					}
				})
			}
		}
	}
}

// TestGoldenVariantsReplication replays every golden scenario through the
// fused SimulateVariants path, batching all cluster counts and policy
// variants of one benchmark into a single call, and requires the rendered
// output to match the committed goldens byte for byte. Combined with
// TestGoldenReplication this pins a three-way equivalence: oracle scan
// loop (which generated the goldens) == standalone run == fused
// multi-variant run.
func TestGoldenVariantsReplication(t *testing.T) {
	if *updateGoldens {
		t.Skip("goldens are regenerated by TestGoldenReplication")
	}
	for _, bench := range []string{"vpr", "gcc"} {
		tr, err := workload.Generate(bench, goldenInsts, 1)
		if err != nil {
			t.Fatal(err)
		}
		var variants []machine.Variant
		var names []string
		for _, clusters := range []int{1, 2, 4} {
			for _, v := range goldenVariants() {
				cfg := machine.NewConfig(clusters)
				pol, hooks := v.setup(&cfg)
				variants = append(variants, machine.Variant{Config: cfg, Pol: pol, Hooks: hooks})
				names = append(names, fmt.Sprintf("%s_%dx_%s", bench, clusters, v.key))
			}
		}
		rendered := make([][]byte, len(variants))
		_, err = machine.SimulateVariants(tr, variants, 1, func(i int, m *machine.Machine, res machine.Result) error {
			if err := machine.Check(m); err != nil {
				return fmt.Errorf("%s: %w", names[i], err)
			}
			var buf bytes.Buffer
			writeGolden(&buf, m, res)
			rendered[i] = buf.Bytes()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range rendered {
			t.Run(names[i], func(t *testing.T) {
				path := filepath.Join("testdata", "golden", names[i]+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (regenerate with -update-goldens): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("fused run drifted from golden %s:\n%s", path, firstDiff(got, want))
				}
			})
		}
	}
}

// writeGolden renders a run deterministically: the Result summary, the
// steering/ILP statistics, and the full per-instruction timestamp table.
func writeGolden(buf *bytes.Buffer, m *machine.Machine, res machine.Result) {
	cfg := m.Config()
	fmt.Fprintf(buf, "config %s policy %s insts %d sched %s bypass %d fwd %d\n",
		res.ConfigName, res.PolicyName, res.Insts, cfg.SchedMode, cfg.BypassPerCluster, cfg.FwdLatency)
	fmt.Fprintf(buf, "cycles %d branches %d mispredicts %d l1accesses %d l1missrate %s\n",
		res.Cycles, res.Branches, res.Mispredicts, res.L1Accesses,
		strconv.FormatFloat(res.L1MissRate, 'g', -1, 64))
	fmt.Fprintf(buf, "globalvalues %d steerstalls %d steer %v\n",
		res.GlobalValues, res.SteerStallCycles, res.SteerCounts)
	fmt.Fprintf(buf, "ilpavail %v\n", res.ILPAvail)
	fmt.Fprintf(buf, "ilpissued %v\n", res.ILPIssued)
	buf.WriteString("seq fetch dispatch ready issue complete commit cluster\n")
	for i, e := range m.Events() {
		fmt.Fprintf(buf, "%d %d %d %d %d %d %d %d\n",
			i, e.Fetch, e.Dispatch, e.Ready, e.Issue, e.Complete, e.Commit, e.Cluster)
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length differs: got %d lines, want %d lines", len(g), len(w))
}

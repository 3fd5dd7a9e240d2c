package listsched_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
)

// updateGoldens regenerates the committed golden files using the
// reference Run and RunReplicated paths (the retained oracles):
//
//	go test ./internal/listsched -run Golden -update-goldens
//
// The regular test run schedules every variant through the pooled
// batched Scheduler in one fused ScheduleVariants (or ScheduleReplicated)
// call and requires byte-for-byte equality, so the goldens pin
// schedule-exact equivalence between the paths across cluster counts and
// priority kinds.
var updateGoldens = flag.Bool("update-goldens", false,
	"regenerate golden files with the reference Run and RunReplicated paths")

const goldenInsts = 1500

// trainedExact builds a deterministic per-PC criticality tracker from
// the oracle's own marks (the same proxy TestLoCPriorityCloseToOracle
// uses), so LoC/binary goldens need no machine-side detector state.
func trainedExact(in listsched.Input, oracle *listsched.Oracle) *predictor.Exact {
	exact := predictor.NewExact()
	var maxKey int64
	n := in.Trace.Len()
	for i := 0; i < n; i++ {
		if k := oracle.Key(int64(i), 0); k > maxKey {
			maxKey = k
		}
	}
	for i := 0; i < n; i++ {
		exact.Train(in.Trace.Insts[i].PC, oracle.Key(int64(i), 0) > maxKey/2)
	}
	return exact
}

func TestGoldenSchedules(t *testing.T) {
	for _, bench := range []string{"vpr", "gcc"} {
		in, _ := prepare(t, bench, goldenInsts)
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
		type goldenVariant struct {
			key      string
			clusters int
			pri      listsched.Priority
		}
		goldens := []goldenVariant{
			{"oracle_1x", 1, oracle},
			{"oracle_2x", 2, oracle},
			{"oracle_4x", 4, oracle},
			{"oracle_8x", 8, oracle},
			{"loc16_4x", 4, loc16},
			{"binary_4x", 4, binary},
		}
		variants := make([]listsched.Variant, len(goldens))
		for j, v := range goldens {
			variants[j] = listsched.Variant{Config: listsched.ConfigFor(machine.NewConfig(v.clusters)), Pri: v.pri}
		}
		sched := listsched.NewScheduler()
		fast, err := sched.ScheduleVariants(in, variants)
		if err != nil {
			t.Fatal(err)
		}
		sched.Recycle()
		for j, v := range goldens {
			name := bench + "_" + v.key
			t.Run(name, func(t *testing.T) {
				cfg := variants[j].Config
				s := fast[j]
				if *updateGoldens {
					s, err = listsched.Run(in, cfg, v.pri)
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := listsched.Check(in, cfg, s); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				writeSchedGolden(&buf, cfg, s)
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
					t.Fatalf("golden drift in %s:\n%s", path, firstSchedDiff(buf.Bytes(), want))
				}
			})
		}
	}
}

// writeSchedGolden renders a schedule deterministically: the resource
// config, the summary scalars, and the full per-instruction placement.
func writeSchedGolden(buf *bytes.Buffer, cfg listsched.Config, s *listsched.Schedule) {
	fmt.Fprintf(buf, "config %dx%dw int %d fp %d mem %d fwd %d\n",
		cfg.Clusters, cfg.Width, cfg.Int, cfg.FP, cfg.Mem, cfg.Fwd)
	fmt.Fprintf(buf, "makespan %d cross %d dyadic %d\n", s.Makespan, s.CrossEdges, s.DyadicCross)
	buf.WriteString("seq start complete cluster\n")
	for i := range s.Start {
		fmt.Fprintf(buf, "%d %d %d %d\n", i, s.Start[i], s.Complete[i], s.Cluster[i])
	}
}

// firstSchedDiff locates the first differing line for a readable failure.
func firstSchedDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length differs: got %d lines, want %d lines", len(g), len(w))
}

// TestGoldenReplicated pins the replicated fast path the same way:
// oracle-priority replicated schedules of gcc and vpr on 2, 4 and 8
// clusters, all from one fused ScheduleReplicated call, must match the
// goldens RunReplicated wrote byte for byte, replicas included.
func TestGoldenReplicated(t *testing.T) {
	for _, bench := range []string{"vpr", "gcc"} {
		in, _ := prepare(t, bench, goldenInsts)
		oracle := listsched.NewOracle(in)
		clusters := []int{2, 4, 8}
		variants := make([]listsched.Variant, len(clusters))
		for j, k := range clusters {
			variants[j] = listsched.Variant{Config: listsched.ConfigFor(machine.NewConfig(k)), Pri: oracle}
		}
		sched := listsched.NewScheduler()
		fast, err := sched.ScheduleReplicated(in, variants)
		if err != nil {
			t.Fatal(err)
		}
		sched.Recycle()
		for j, k := range clusters {
			name := fmt.Sprintf("%s_repl_%dx", bench, k)
			t.Run(name, func(t *testing.T) {
				cfg := variants[j].Config
				s := fast[j]
				if *updateGoldens {
					s, err = listsched.RunReplicated(in, cfg, oracle)
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := listsched.CheckReplicated(in, cfg, s); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				writeSchedGolden(&buf, cfg, &s.Schedule)
				fmt.Fprintf(&buf, "replicas %d\nseq cluster start complete\n", len(s.Replicas))
				for _, r := range s.Replicas {
					fmt.Fprintf(&buf, "%d %d %d %d\n", r.Seq, r.Cluster, r.Start, r.Complete)
				}
				path := filepath.Join("testdata", "golden", name+".golden")
				if *updateGoldens {
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
					t.Fatalf("golden drift in %s:\n%s", path, firstSchedDiff(buf.Bytes(), want))
				}
			})
		}
	}
}

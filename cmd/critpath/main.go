// Command critpath simulates one benchmark on one configuration and
// prints the critical-path attribution (the raw material of Figures 5
// and 6), plus run statistics.
//
// Usage:
//
//	critpath -bench gzip -clusters 8 -policy stall-over-steer -n 200000
//	critpath -trace vpr.trace -clusters 4 -policy focused
//
// -trace reads a CTR2 chunked store, the file `tracegen -o` writes (see
// internal/trace), and materializes it for the simulation. Files in the
// retired CTR1 whole-trace format are rejected with a message to
// regenerate them with tracegen.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"clustersim"
	"clustersim/internal/trace"
)

func main() {
	bench := flag.String("bench", "", "benchmark to generate and run")
	traceFile := flag.String("trace", "", "trace file to run instead of -bench")
	n := flag.Int("n", 200_000, "instructions (with -bench)")
	seed := flag.Uint64("seed", 1, "seed")
	clusters := flag.Int("clusters", 4, "cluster count (1, 2, 4 or 8)")
	policy := flag.String("policy", "focused", "steering policy")
	pcs := flag.Int("pcs", 0, "also print the N most critical static instructions")
	flag.Parse()

	if err := run(*bench, *traceFile, *n, *seed, *clusters, *policy, *pcs); err != nil {
		fmt.Fprintln(os.Stderr, "critpath:", err)
		os.Exit(1)
	}
}

func run(bench, traceFile string, n int, seed uint64, clusters int, policy string, pcs int) error {
	var tr *clustersim.Trace
	var err error
	switch {
	case traceFile != "":
		st, err := trace.Open(traceFile, trace.OpenOptions{})
		if err != nil {
			return err
		}
		defer st.Close()
		if tr, err = st.Load(); err != nil {
			return err
		}
	case bench != "":
		tr, err = clustersim.GenerateTrace(bench, n, seed)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("pass -bench or -trace (see -h)")
	}

	sim, err := clustersim.NewSim(clustersim.NewConfig(clusters), tr,
		clustersim.SimOptions{Policy: policy, Seed: seed, TrackExact: pcs > 0})
	if err != nil {
		return err
	}
	res := sim.Run()
	a, err := sim.CriticalPath()
	if err != nil {
		return err
	}

	fmt.Printf("%s on %s with %s: %d insts, %d cycles, CPI %.3f, IPC %.2f\n",
		bench+traceFile, res.ConfigName, res.PolicyName, res.Insts, res.Cycles, res.CPI(), res.IPC())
	fmt.Printf("branches: %d (%.2f%% mispredicted); L1 miss rate %.2f%%; global values/inst %.3f\n",
		res.Branches, res.MispredictRate()*100, res.L1MissRate*100, res.GlobalValuesPerInst())
	fmt.Println("critical-path attribution (CPI contribution):")
	ni := float64(res.Insts)
	b := a.Breakdown
	for _, row := range []struct {
		name string
		v    int64
	}{
		{"fwd delay", b.FwdDelay}, {"contention", b.Contention}, {"execute", b.Execute},
		{"mem latency", b.MemLatency}, {"fetch", b.Fetch}, {"window", b.Window},
		{"br mispredict", b.BrMispredict}, {"commit", b.Commit},
	} {
		fmt.Printf("  %-14s %7.3f\n", row.name, float64(row.v)/ni)
	}
	if b.Boundary != 0 {
		// Windowed walks book pre-window residue here; a whole-run walk
		// never does, so the row only appears when it carries cycles.
		fmt.Printf("  %-14s %7.3f\n", "boundary", float64(b.Boundary)/ni)
	}
	fmt.Printf("  %-14s %7.3f\n", "total", float64(b.Total())/ni)
	fmt.Printf("contention stalls on path: %d critical, %d other; fwd events: %d loadbal, %d dyadic, %d other\n",
		a.ContentionCritical, a.ContentionOther, a.FwdLoadBal, a.FwdDyadic, a.FwdOther)
	fmt.Printf("steering: %d local, %d dyadic, %d load-balanced, %d proactive, %d no-pref; %d stall cycles\n",
		res.SteerCounts[1], res.SteerCounts[3], res.SteerCounts[2],
		res.SteerCounts[4], res.SteerCounts[0], res.SteerStallCycles)
	if pcs > 0 {
		printTopPCs(sim, tr, pcs)
	}
	return nil
}

// printTopPCs lists the most critical static instructions by observed
// criticality frequency, with their op and dynamic instance counts.
func printTopPCs(sim *clustersim.Sim, tr *clustersim.Trace, n int) {
	exact := sim.Exact()
	if exact == nil {
		return
	}
	type row struct {
		pc   uint64
		frac float64
		seen uint64
	}
	var rows []row
	for _, pc := range exact.PCs() {
		rows = append(rows, row{pc, exact.Frac(pc), exact.Seen(pc)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].frac != rows[j].frac {
			return rows[i].frac > rows[j].frac
		}
		return rows[i].pc < rows[j].pc
	})
	// Find a representative op per PC.
	ops := map[uint64]string{}
	for i := range tr.Insts {
		if _, ok := ops[tr.Insts[i].PC]; !ok {
			ops[tr.Insts[i].PC] = tr.Insts[i].Op.String()
		}
	}
	if n > len(rows) {
		n = len(rows)
	}
	fmt.Printf("top %d static instructions by likelihood of criticality:\n", n)
	fmt.Printf("%-10s %-8s %10s %8s\n", "pc", "op", "instances", "LoC")
	for _, r := range rows[:n] {
		fmt.Printf("%#-10x %-8s %10d %7.1f%%\n", r.pc, ops[r.pc], r.seen, r.frac*100)
	}
}

// Command tracegen generates and inspects synthetic benchmark traces.
//
// Usage:
//
//	tracegen -bench vpr -n 100000 -o vpr.trace     # write a trace file
//	tracegen -inspect vpr.trace                    # summarize a trace file
//	tracegen -bench vpr -n 100000                  # summarize without writing
//	tracegen -list                                 # list benchmarks
//
// Trace files are CTR2 chunked stores (see internal/trace): -o streams
// the generation to disk with bounded memory, and -inspect streams a
// file back the same way, so neither holds the whole trace at any
// length. Files in the retired CTR1 whole-trace format are rejected with
// a message to regenerate them with -o.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"clustersim/internal/isa"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark to generate")
	n := flag.Int("n", 100_000, "instructions to generate")
	seed := flag.Uint64("seed", 1, "generation seed")
	out := flag.String("o", "", "output trace file")
	inspect := flag.String("inspect", "", "trace file to summarize")
	list := flag.Bool("list", false, "list available benchmarks")
	flag.Parse()

	if err := run(os.Stdout, *bench, *n, *seed, *out, *inspect, *list); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, bench string, n int, seed uint64, out, inspect string, list bool) error {
	switch {
	case list:
		for _, name := range workload.Names() {
			fmt.Fprintln(w, name)
		}
		return nil
	case inspect != "":
		s, pcs, err := summarizeFile(inspect)
		if err != nil {
			return err
		}
		printSummary(w, inspect, s, pcs)
		return nil
	case bench != "" && out != "":
		if err := workload.GenerateToFile(bench, n, seed, out, trace.WriterOptions{}); err != nil {
			return err
		}
		s, pcs, err := summarizeFile(out)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d instructions to %s\n", s.Total, out)
		printSummary(w, bench, s, pcs)
		return nil
	case bench != "":
		tr, err := workload.Generate(bench, n, seed)
		if err != nil {
			return err
		}
		pcs := map[uint64]bool{}
		for i := range tr.Insts {
			pcs[tr.Insts[i].PC] = true
		}
		printSummary(w, bench, tr.Summarize(), len(pcs))
		return nil
	}
	return fmt.Errorf("nothing to do: pass -bench, -inspect or -list (see -h)")
}

// summarizeFile streams a CTR2 trace file once for its op mix and once
// for its static footprint (distinct PCs).
func summarizeFile(path string) (trace.Stats, int, error) {
	st, err := trace.Open(path, trace.OpenOptions{})
	if err != nil {
		return trace.Stats{}, 0, err
	}
	defer st.Close()
	s, err := st.Summarize()
	if err != nil {
		return trace.Stats{}, 0, err
	}
	pcs := map[uint64]bool{}
	err = st.Scan(func(ch *trace.Chunk) error {
		for _, pc := range ch.PC[:ch.N] {
			pcs[pc] = true
		}
		return nil
	})
	return s, len(pcs), err
}

func printSummary(w io.Writer, name string, s trace.Stats, pcs int) {
	fmt.Fprintf(w, "%s: %d instructions\n", name, s.Total)
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if s.Count[op] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s %8d (%5.1f%%)\n", op, s.Count[op], s.Frac(op)*100)
	}
	if s.Branches > 0 {
		fmt.Fprintf(w, "  branches taken: %.1f%%\n", float64(s.Taken)/float64(s.Branches)*100)
	}
	fmt.Fprintf(w, "  static footprint: %d PCs\n", pcs)
}

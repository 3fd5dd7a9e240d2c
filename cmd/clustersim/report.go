package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"clustersim/internal/durable"
	"clustersim/internal/experiments"
)

// allExperiments is the report order: paper figures first, then the
// in-text studies, then ablations and extensions.
var allExperiments = []struct {
	name  string
	title string
}{
	{"config", "Table 1 — machine configurations"},
	{"workloads", "Workload characterization"},
	{"fig2", "Figure 2 — idealized list scheduling"},
	{"fig2-attrib", "Section 2.2 — convergent-dataflow attribution"},
	{"fig4", "Figure 4 — focused steering & scheduling"},
	{"fig5", "Figure 5 — critical-path breakdown"},
	{"fig6", "Figure 6 — contention and forwarding events"},
	{"fig8", "Figure 8 — LoC distribution"},
	{"fig14", "Figure 14 — the three policies"},
	{"fig15", "Figure 15 — achieved vs available ILP"},
	{"loc-oracle", "Section 4 — list-scheduler knowledge study"},
	{"consumers", "Section 6 — producer/consumer analysis"},
	{"slack", "Slack analysis (Fields '02)"},
	{"icost", "Interaction costs (Fields '03)"},
	{"detector-compare", "Detectors — epoch-graph vs token-passing"},
	{"group-steer", "Section 8 — steering-circuit complexity"},
	{"fwd-sweep", "Forwarding-latency sensitivity"},
	{"stall-sweep", "Stall-threshold ablation"},
	{"window-sweep", "Window-partition ablation"},
	{"bandwidth-sweep", "Bypass-bandwidth ablation"},
	{"predictor-sweep", "Predictor-capacity ablation"},
	{"replication", "Footnote 4 — instruction replication"},
	{"future-work", "Future work — readiness-aware balancing"},
}

// writeReport runs every experiment and writes one markdown document,
// replacing path atomically so a crash never leaves a torn report.
func writeReport(path string, opts experiments.Options) error {
	return durable.WriteFileAtomic(path, func(w io.Writer) error {
		fmt.Fprintf(w, "# clustersim results report\n\n")
		fmt.Fprintf(w, "Reproduction of Salverda & Zilles, MICRO 2005. ")
		fmt.Fprintf(w, "Parameters: %d instructions/benchmark, seed %d, %d-cycle forwarding.\n",
			opts.Insts, opts.Seed, opts.Fwd)
		for _, exp := range allExperiments {
			fmt.Fprintf(w, "\n## %s\n\n```\n", exp.title)
			start := time.Now()
			out, err := captureRun(exp.name, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", exp.name, err)
			}
			io.WriteString(w, out)
			fmt.Fprintf(w, "```\n\n_%s took %.1fs._\n", exp.name, time.Since(start).Seconds())
		}
		return nil // a failed write surfaces when the report is flushed
	})
}

// captureRun runs one experiment and returns its rendered output.
func captureRun(exp string, opts experiments.Options) (string, error) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			if n > 0 {
				b.Write(buf[:n])
			}
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	runErr := run(exp, opts)
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, runErr
}

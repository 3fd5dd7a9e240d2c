package main

import (
	"fmt"
	"io"
	"time"

	"clustersim/internal/durable"
	"clustersim/internal/experiments"
)

// writeReport runs exps and writes one markdown document, replacing path
// atomically so a crash never leaves a torn report.
func writeReport(path string, opts experiments.Options, exps []experiments.Experiment) error {
	return durable.WriteFileAtomic(path, func(w io.Writer) error {
		fmt.Fprintf(w, "# clustersim results report\n\n")
		fmt.Fprintf(w, "Reproduction of Salverda & Zilles, MICRO 2005. ")
		fmt.Fprintf(w, "Parameters: %d instructions/benchmark, seed %d, %d-cycle forwarding.\n",
			opts.Insts, opts.Seed, opts.Fwd)
		for _, exp := range exps {
			fmt.Fprintf(w, "\n## %s\n\n```\n", exp.Title)
			start := time.Now()
			if err := exp.Render(opts, w); err != nil {
				return fmt.Errorf("%s: %w", exp.Name, err)
			}
			fmt.Fprintf(w, "```\n\n_%s took %.1fs._\n", exp.Name, time.Since(start).Seconds())
		}
		return nil // a failed write surfaces when the report is flushed
	})
}

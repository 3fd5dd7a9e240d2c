// Command clustersim regenerates the tables and figures of Salverda &
// Zilles, "A Criticality Analysis of Clustering in Superscalar
// Processors" (MICRO 2005).
//
// Usage:
//
//	clustersim [flags] <experiment> [<experiment> ...]
//	clustersim serve [flags]      multi-tenant HTTP job API (see internal/server)
//
// Experiments:
//
//	config      Table 1 (machine configurations)
//	fig2        idealized list scheduling
//	fig2-attrib convergent-dataflow attribution of Figure 2 (Section 2.2)
//	fig4        focused steering & scheduling slowdowns
//	fig5        critical-path CPI breakdown
//	fig6        contention/forwarding event breakdowns
//	fig8        LoC value distribution
//	fig14       the three policies (l, s, p) and penalty reductions
//	fig15       achieved vs available ILP (8x1w)
//	loc-oracle  Section 4's list-scheduler knowledge study
//	consumers   Section 6's producer/consumer statistics
//	all         everything above, in paper order
//
// Flags:
//
//	-n int         instructions per benchmark (default 200000)
//	-seed uint     workload seed (default 1)
//	-fwd int       inter-cluster forwarding latency (default 2)
//	-benchmarks s  comma-separated subset (default: all twelve)
//	-j int         worker-pool size (default GOMAXPROCS)
//	-cache-dir s   persist traces and results here across runs
//	-cache-mem int in-memory cache budget in MiB (default 1024)
//	-metrics addr  serve /metrics and /debug/pprof on this address
//	-trace-window n  chunks kept resident per open trace store
//
// Robustness flags (see DESIGN.md "Failure model & recovery"):
//
//	-journal f     append completed results to this checkpoint journal
//	               (default <cache-dir>/journal.wal when -resume is set)
//	-resume        replay the journal first and recompute only what is
//	               missing; Ctrl-C + rerun with -resume picks up a sweep
//	               where it died
//	-deadline d    cancel the whole run after this duration; completed
//	               results drain cleanly and the summary still prints
//	-job-deadline d  count (not kill) simulation jobs exceeding this
//	               soft per-job deadline in the engine summary
//	-chaos-seed n  \ deterministic fault injection for testing: inject
//	-chaos-rate p  / I/O errors, short writes, read latency and worker
//	               panics at rate p (results must not change — only the
//	               robustness counters do)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/experiments"
	"clustersim/internal/faultinject"
	"clustersim/internal/metrics"
)

func main() {
	// The serve subcommand dispatches before the experiment flags parse.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}

	n := flag.Int("n", 200_000, "instructions per benchmark")
	seed := flag.Uint64("seed", 1, "workload seed")
	fwd := flag.Int("fwd", 2, "inter-cluster forwarding latency (cycles)")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark subset")
	report := flag.String("report", "", "write a single markdown report of all experiments to this file")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "simulation worker-pool size")
	replayWorkers := flag.Int("replay-workers", 0, "intra-job variant fan-out width (0: a per-job share of GOMAXPROCS); results are byte-identical under any value")
	cacheDir := flag.String("cache-dir", "", "on-disk cache directory for traces and results (empty: memory only)")
	cacheMem := flag.Int64("cache-mem", engine.DefaultMaxCacheBytes>>20, "in-memory cache budget in MiB (<0: unlimited)")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	traceWindow := flag.Int("trace-window", 0, "chunks kept resident per open trace store (0: default, currently 4 chunks of 65536 instructions)")
	journalPath := flag.String("journal", "", "checkpoint journal path (default <cache-dir>/journal.wal when -resume is set)")
	resume := flag.Bool("resume", false, "replay the checkpoint journal and recompute only missing results")
	deadline := flag.Duration("deadline", 0, "cancel the whole run after this duration (0: none)")
	jobDeadline := flag.Duration("job-deadline", 0, "count simulation jobs exceeding this soft deadline (0: none)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "fault-injection seed (testing; used with -chaos-rate)")
	chaosRate := flag.Float64("chaos-rate", 0, "fault-injection probability per site visit (testing; 0: disabled)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: clustersim [flags] <experiment> ...")
		fmt.Fprintln(os.Stderr, "experiments: config fig2 fig2-attrib fig4 fig5 fig6 fig8 fig14 fig14-detail fig15 loc-oracle consumers fwd-sweep stall-sweep slack detector-compare window-sweep bandwidth-sweep replication icost group-steer predictor-sweep workloads future-work all")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *chaosRate > 0 {
		faultinject.Enable(*chaosSeed, *chaosRate)
		fmt.Fprintf(os.Stderr, "clustersim: chaos enabled (seed=%d rate=%g) — results are unaffected, only robustness counters\n",
			*chaosSeed, *chaosRate)
	} else if faultinject.EnableFromEnv() {
		fmt.Fprintln(os.Stderr, "clustersim: chaos enabled from CLUSTERSIM_CHAOS_SEED/RATE")
	}

	reg := metrics.NewRegistry()
	eng := engine.New(engine.Config{
		Workers:           *jobs,
		ReplayWorkers:     *replayWorkers,
		CacheDir:          *cacheDir,
		MaxCacheBytes:     *cacheMem * (1 << 20),
		Metrics:           reg,
		JobDeadline:       *jobDeadline,
		TraceWindowChunks: *traceWindow,
	})
	if err := eng.Summary().DiskErr; err != nil {
		fmt.Fprintf(os.Stderr, "clustersim: disk cache disabled: %v\n", err)
	}

	// Ctrl-C (and -deadline) cancel the run context: in-flight jobs
	// finish, pending ones fail fast, and the summary still renders so a
	// -resume rerun knows what survived.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	eng.SetContext(ctx)

	if *resume || *journalPath != "" {
		path := *journalPath
		if path == "" {
			if *cacheDir != "" {
				path = filepath.Join(*cacheDir, "journal.wal")
			} else {
				path = "clustersim.journal"
			}
		}
		restored, err := eng.OpenJournal(path, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clustersim: journal:", err)
			os.Exit(1)
		}
		defer eng.CloseJournal()
		if *resume {
			fmt.Fprintf(os.Stderr, "clustersim: resumed %d completed results from %s\n", restored, path)
		}
	}
	if *metricsAddr != "" {
		addr, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clustersim: metrics:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof on /debug/pprof)\n", addr)
	}

	opts := experiments.Options{Insts: *n, Seed: *seed, Fwd: *fwd, Engine: eng, ReplayWorkers: *replayWorkers}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}

	// Every run must fit the machine's limits; say so before any work.
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}

	if *report != "" {
		if err := writeReport(*report, opts); err != nil {
			fmt.Fprintln(os.Stderr, "clustersim:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *report)
		eng.RenderSummary(os.Stderr)
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 1 && args[0] == "all" {
		args = []string{"config", "fig2", "fig2-attrib", "fig4", "fig5", "fig6",
			"fig8", "fig14", "fig15", "loc-oracle", "consumers", "fwd-sweep", "stall-sweep",
			"slack", "detector-compare", "window-sweep", "bandwidth-sweep", "replication", "icost", "group-steer", "predictor-sweep", "workloads", "future-work"}
	}
	failed := false
	for _, exp := range args {
		start := time.Now()
		if err := run(exp, opts); err != nil {
			failed = true
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "clustersim: %s: %v\n", exp, err)
				if eng.JournalPath() != "" {
					fmt.Fprintln(os.Stderr, "clustersim: completed results are journaled; rerun with -resume to continue")
				}
				break
			}
			fmt.Fprintf(os.Stderr, "clustersim: %s: %v\n", exp, err)
			break
		}
		fmt.Printf("[%s took %.1fs]\n\n", exp, time.Since(start).Seconds())
	}
	eng.RenderSummary(os.Stderr)
	if err := eng.CloseJournal(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersim: journal close:", err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// fig5Cache shares the expensive focused-policy runs between fig5 and
// fig6 when both are requested in one invocation.
var fig5Cache *experiments.Figure5Result

func fig5(opts experiments.Options) (*experiments.Figure5Result, error) {
	if fig5Cache != nil {
		return fig5Cache, nil
	}
	r, err := experiments.Figure5(opts)
	if err == nil {
		fig5Cache = r
	}
	return r, err
}

func run(exp string, opts experiments.Options) error {
	w := os.Stdout
	switch exp {
	case "config":
		experiments.ConfigTable(w)
	case "fig2":
		r, err := experiments.Figure2(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig2-attrib":
		r, err := experiments.AttributeFigure2(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig4":
		r, err := experiments.Figure4(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig5":
		r, err := fig5(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig6":
		r, err := fig5(opts)
		if err != nil {
			return err
		}
		r.RenderFigure6(w)
	case "fig8":
		r, err := experiments.Figure8(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig14":
		r, err := experiments.Figure14(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fig14-detail":
		r, err := experiments.Figure14(opts)
		if err != nil {
			return err
		}
		r.Render(w)
		r.RenderPerBench(w)
	case "fig15":
		r, err := experiments.Figure15(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "loc-oracle":
		r, err := experiments.LoCOracle(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "consumers":
		r, err := experiments.Consumers(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "fwd-sweep":
		r, err := experiments.FwdSweep(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "stall-sweep":
		r, err := experiments.StallSweep(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "slack":
		r, err := experiments.SlackStudy(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "detector-compare":
		r, err := experiments.DetectorCompare(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "window-sweep":
		r, err := experiments.WindowSweep(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "bandwidth-sweep":
		r, err := experiments.BandwidthSweep(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "replication":
		r, err := experiments.Replication(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "icost":
		r, err := experiments.ICost(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "group-steer":
		r, err := experiments.GroupSteer(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "predictor-sweep":
		r, err := experiments.PredictorSweep(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "workloads":
		r, err := experiments.Characterize(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	case "future-work":
		r, err := experiments.FutureWork(opts)
		if err != nil {
			return err
		}
		r.Render(w)
	default:
		return fmt.Errorf("unknown experiment (see -h)")
	}
	return nil
}

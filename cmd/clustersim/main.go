// Command clustersim regenerates the tables and figures of Salverda &
// Zilles, "A Criticality Analysis of Clustering in Superscalar
// Processors" (MICRO 2005).
//
// Usage:
//
//	clustersim [flags] <experiment> [<experiment> ...]
//	clustersim [flags] all
//	clustersim [flags] -report out.md [<experiment> ...]
//	clustersim serve [flags]      multi-tenant HTTP job API (see internal/server)
//
// `clustersim -h` lists every experiment with its title and every flag;
// the experiments come from experiments.Registry. An interrupted run
// resumes by rerunning it with the same -cache-dir. DESIGN.md "Failure
// model & recovery" covers the robustness flags (-deadline,
// -job-deadline) and fault injection (CLUSTERSIM_CHAOS_SEED/RATE).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
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

	n := flag.Int("n", 200_000, "instructions per benchmark (> 0)")
	seed := flag.Uint64("seed", 1, "workload seed (0 is rejected)")
	fwd := flag.Int("fwd", 2, "inter-cluster forwarding latency in cycles (> 0)")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark subset")
	report := flag.String("report", "", "write the named experiments (default: all) as one markdown report to this file")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "simulation worker-pool size")
	replayWorkers := flag.Int("replay-workers", 0, "intra-job variant fan-out width (0: a per-job share of GOMAXPROCS); results are byte-identical under any value")
	cacheDir := flag.String("cache-dir", "", "on-disk cache directory for results, analyses and schedules (traces are regenerated); rerunning with it resumes an interrupted run (empty: memory only)")
	cacheMem := flag.Int64("cache-mem", engine.DefaultMaxCacheBytes>>20, cacheMemUsage)
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	deadline := flag.Duration("deadline", 0, "cancel the whole run after this duration (0: none)")
	jobDeadline := flag.Duration("job-deadline", 0, "count simulation jobs exceeding this soft deadline (0: none)")
	flag.Usage = usage
	flag.Parse()
	// Reject a bad name before any work: a later typo must not cost the
	// earlier experiments' simulations first.
	selected, err := resolve(flag.Args())
	if err == nil {
		err = checkFlags(flag.CommandLine)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(2)
	}

	if faultinject.EnableFromEnv() {
		fmt.Fprintln(os.Stderr, "clustersim: chaos enabled from CLUSTERSIM_CHAOS_SEED/RATE")
	}

	reg := metrics.NewRegistry()
	eng := engine.New(engine.Config{
		Workers:       *jobs,
		ReplayWorkers: *replayWorkers,
		CacheDir:      *cacheDir,
		MaxCacheBytes: *cacheMem * (1 << 20),
		Metrics:       reg,
		JobDeadline:   *jobDeadline,
	})
	if err := eng.Summary().DiskErr; err != nil {
		fmt.Fprintf(os.Stderr, "clustersim: disk cache disabled: %v\n", err)
	}

	// Ctrl-C (and -deadline) cancel the run context: in-flight jobs
	// finish, pending ones fail fast, and the summary still renders; a
	// rerun with the same -cache-dir recomputes only what is missing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	if *metricsAddr != "" {
		addr, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clustersim: metrics:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof on /debug/pprof)\n", addr)
	}

	opts := experiments.Options{Insts: *n, Seed: *seed, Fwd: *fwd, Engine: eng, Ctx: ctx, ReplayWorkers: *replayWorkers}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}

	// Every run must fit the machine's limits; say so before any work.
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}

	if *report != "" {
		if len(selected) == 0 {
			selected = batch()
		}
		if err := writeReport(*report, opts, selected); err != nil {
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

	failed := false
	for _, exp := range selected {
		start := time.Now()
		if err := exp.Render(opts, os.Stdout); err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "clustersim: %s: %v\n", exp.Name, err)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				resumeHint(eng, *cacheDir)
			}
			break
		}
		fmt.Printf("[%s took %.1fs]\n\n", exp.Name, time.Since(start).Seconds())
	}
	eng.RenderSummary(os.Stderr)
	if failed {
		os.Exit(1)
	}
}

// resumeHint tells a cancelled run's user how to continue it: completed
// work survives only in a usable disk cache.
func resumeHint(eng *engine.Engine, cacheDir string) {
	if s := eng.Summary(); cacheDir != "" && s.DiskErr == nil && !s.DiskDegraded {
		fmt.Fprintf(os.Stderr, "clustersim: completed work is cached in %s; rerun with -cache-dir %s to resume\n", cacheDir, cacheDir)
		return
	}
	fmt.Fprintln(os.Stderr, "clustersim: completed work was held in memory only; rerun with -cache-dir to keep it")
}

// cacheMemUsage is both commands' -cache-mem help.
const cacheMemUsage = "in-memory cache budget in MiB (<0: unlimited; 0 is rejected)"

// flagRules name the flag values a lower layer would read as "unset"
// and silently replace with its default: engine.Config reads a zero
// cache budget as the 1 GiB default, and experiments.Options.WithDefaults
// reads -n <= 0, -fwd <= 0 and -seed 0 as unset.
var flagRules = []struct {
	name string
	bad  func(v any) bool
	why  string
}{
	{"n", func(v any) bool { return v.(int) <= 0 }, "is not an instruction count: give one > 0"},
	{"fwd", func(v any) bool { return v.(int) <= 0 }, "is not a latency: give cycles > 0"},
	{"seed", func(v any) bool { return v.(uint64) == 0 }, "would run as seed 1: give a seed > 0"},
	{"cache-mem", func(v any) bool { return v.(int64) == 0 }, "is not a budget: give MiB, or <0 for unlimited"},
}

// checkFlags rejects the flagRules values among the flags fs defines,
// so both commands refuse them before any work.
func checkFlags(fs *flag.FlagSet) error {
	for _, r := range flagRules {
		f := fs.Lookup(r.name)
		if f == nil {
			continue
		}
		if v := f.Value.(flag.Getter).Get(); r.bad(v) {
			return fmt.Errorf("-%s %v %s", r.name, v, r.why)
		}
	}
	return nil
}

// batch returns the experiments `all` and -report run, in registry order.
func batch() []experiments.Experiment {
	var exps []experiments.Experiment
	for _, e := range experiments.Registry {
		if e.Reach != experiments.NamedOnly {
			exps = append(exps, e)
		}
	}
	return exps
}

// resolve maps the command-line arguments to registry entries. `all` is
// accepted only as the sole argument.
func resolve(args []string) ([]experiments.Experiment, error) {
	if len(args) == 1 && args[0] == "all" {
		return batch(), nil
	}
	exps := make([]experiments.Experiment, 0, len(args))
	for _, name := range args {
		e, ok := experiments.Lookup(name)
		if !ok {
			if name == "all" {
				return nil, errors.New("all must be the only experiment named")
			}
			var names []string
			for _, known := range experiments.Registry {
				names = append(names, known.Name)
			}
			return nil, fmt.Errorf("unknown experiment %q (have: %s all)", name, strings.Join(names, " "))
		}
		exps = append(exps, e)
	}
	return exps, nil
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: clustersim [flags] <experiment> ...")
	fmt.Fprintln(w, "       clustersim serve [flags]")
	fmt.Fprintln(w, "experiments:")
	for _, e := range experiments.Registry {
		note := ""
		if e.Reach == experiments.NamedOnly {
			note = " (only when named)"
		}
		fmt.Fprintf(w, "  %-17s %s%s\n", e.Name, e.Title, note)
	}
	fmt.Fprintf(w, "  %-17s %s\n", "all", "every experiment above not marked (only when named), in this order")
	fmt.Fprintln(w, "flags:")
	flag.PrintDefaults()
}

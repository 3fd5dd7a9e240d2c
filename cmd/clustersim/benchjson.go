package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// benchPoint is one (benchmark, cluster count) cell of the Figure-4-style
// machine sweep: the packed wakeup-driven engine with pooled machines
// against the full-scan oracle with per-run allocation.
type benchPoint struct {
	Bench    string `json:"bench"`
	Clusters int    `json:"clusters"`
	Insts    int    `json:"insts"`
	Runs     int    `json:"runs"`

	WakeupNsPerRun float64 `json:"wakeup_ns_per_run"`
	OracleNsPerRun float64 `json:"oracle_ns_per_run"`
	Speedup        float64 `json:"speedup"`

	// VariantsNsPerRun is this cell's share of one fused SimulateVariants
	// call batching the whole cluster sweep of its benchmark (total fused
	// time divided by the number of geometries); VariantsSpeedup compares
	// it against running this cell alone (New + Run). The fused run is
	// gated byte-identical to scan-oracle runs before timing.
	VariantsNsPerRun float64 `json:"variants_ns_per_run"`
	VariantsSpeedup  float64 `json:"variants_speedup"`

	// ParallelNsPerRun is the same fused batch replayed across
	// ReplayWorkers workers (per-variant share); ParallelSpeedup is the
	// serial-fused over parallel-fused ratio. The parallel path is gated
	// byte-identical to scan-oracle runs before timing, same as the
	// serial one.
	ReplayWorkers    int     `json:"replay_workers"`
	ParallelNsPerRun float64 `json:"parallel_ns_per_run"`
	ParallelSpeedup  float64 `json:"parallel_speedup"`

	WakeupAllocsPerRun float64 `json:"wakeup_allocs_per_run"`
	OracleAllocsPerRun float64 `json:"oracle_allocs_per_run"`
	AllocRatio         float64 `json:"alloc_ratio"`

	WakeupMInstsPerSec float64 `json:"wakeup_minsts_per_sec"`
}

// benchReport is the BENCH_machine.json schema; CI uploads it so the
// simulator-throughput trajectory is tracked per commit.
type benchReport struct {
	Schema                 string       `json:"schema"`
	GoVersion              string       `json:"go_version"`
	MaxProcs               int          `json:"maxprocs"`
	Insts                  int          `json:"insts"`
	Seed                   uint64       `json:"seed"`
	Points                 []benchPoint `json:"points"`
	GeomeanSpeedup         float64      `json:"geomean_speedup"`
	GeomeanVariantsSpeedup float64      `json:"geomean_variants_speedup"`
	GeomeanParallelSpeedup float64      `json:"geomean_parallel_speedup"`
	GeomeanAllocRatio      float64      `json:"geomean_alloc_ratio"`
}

// measure times runs of fn until minDuration has elapsed (at least
// minRuns), returning ns/run and heap allocations/run.
func measure(fn func(), minRuns int, minDuration time.Duration) (nsPerRun, allocsPerRun float64, runs int) {
	fn() // warm caches and the machine pool outside the timed region
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for runs < minRuns || time.Since(start) < minDuration {
		fn()
		runs++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(runs),
		float64(after.Mallocs-before.Mallocs) / float64(runs), runs
}

// gateVariants is the differential gate run before any fused timing: the
// fused batch (built from fused, replayed across workers) must produce
// results and per-event timelines byte-identical to scan-oracle runs of
// the same variants (built independently via ref, so neither set shares
// predictor state).
func gateVariants(tr *trace.Trace, fused, ref []machine.Variant, workers int) error {
	outs, _, err := machine.SimulateVariantsOpts(tr, fused, machine.VariantsOptions{Workers: workers})
	if err != nil {
		return err
	}
	defer func() {
		for _, o := range outs {
			machine.Recycle(o.M)
		}
	}()
	for i := range outs {
		m, err := machine.New(ref[i].Config, tr, ref[i].Pol, ref[i].Hooks)
		if err != nil {
			return err
		}
		m.UseOracleIssue(true)
		res := m.Run()
		if !reflect.DeepEqual(outs[i].Res, res) {
			return fmt.Errorf("variants gate: geometry %d result diverged from the scan oracle", i)
		}
		oev, fev := m.Events(), outs[i].M.Events()
		for s := range fev {
			if fev[s] != oev[s] {
				return fmt.Errorf("variants gate: geometry %d event %d diverged from the scan oracle", i, s)
			}
		}
	}
	return nil
}

// runBenchJSON executes the machine sweep (the Figure 4 benchmark set
// across 1/2/4 clusters under the focused stack) and writes the report.
func runBenchJSON(path string, insts int, seed uint64, fwd int, benches []string) error {
	if len(benches) == 0 {
		benches = []string{"gzip", "vpr", "gcc", "mcf"}
	}
	replayWorkers := runtime.NumCPU()
	rep := benchReport{
		Schema:    "clustersim/bench-machine/v2",
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Insts:     insts,
		Seed:      seed,
	}
	clusterList := []int{1, 2, 4}
	logSpeed := 0.0
	logVariants := 0.0
	logParallel := 0.0
	logAlloc := 0.0
	for _, bench := range benches {
		tr, err := workload.Generate(bench, insts, seed)
		if err != nil {
			return err
		}
		mkCfg := func(clusters int) machine.Config {
			cfg := machine.NewConfig(clusters)
			cfg.FwdLatency = fwd
			cfg.SchedMode = machine.SchedBinaryCritical
			return cfg
		}
		var pts []benchPoint
		for _, clusters := range clusterList {
			cfg := mkCfg(clusters)

			run := func(oracle bool) func() {
				return func() {
					hooks := machine.Hooks{Binary: predictor.NewDefaultBinary()}
					var m *machine.Machine
					var err error
					if oracle {
						m, err = machine.New(cfg, tr, steer.Focused{}, hooks)
					} else {
						m, err = machine.NewPooled(cfg, tr, steer.Focused{}, hooks)
					}
					if err != nil {
						panic(err)
					}
					if oracle {
						m.UseOracleIssue(true)
					}
					m.Run()
					if !oracle {
						machine.Recycle(m)
					}
				}
			}
			wNs, wAllocs, runs := measure(run(false), 3, 150*time.Millisecond)
			oNs, oAllocs, _ := measure(run(true), 3, 150*time.Millisecond)

			pts = append(pts, benchPoint{
				Bench: bench, Clusters: clusters, Insts: insts,
				Runs:           runs,
				WakeupNsPerRun: wNs, OracleNsPerRun: oNs,
				Speedup:            oNs / wNs,
				WakeupAllocsPerRun: wAllocs, OracleAllocsPerRun: oAllocs,
				AllocRatio:         oAllocs / math.Max(wAllocs, 1),
				WakeupMInstsPerSec: float64(insts) / wNs * 1e3,
			})
		}

		// The fused sweep: all geometries of this benchmark in one
		// SimulateVariants call. Gate byte-identity against scan-oracle
		// runs once, then time the fused call.
		mkVariants := func() []machine.Variant {
			vs := make([]machine.Variant, len(clusterList))
			for i, clusters := range clusterList {
				vs[i] = machine.Variant{Config: mkCfg(clusters), Pol: steer.Focused{},
					Hooks: machine.Hooks{Binary: predictor.NewDefaultBinary()}}
			}
			return vs
		}
		if err := gateVariants(tr, mkVariants(), mkVariants(), 1); err != nil {
			return fmt.Errorf("bench %s (serial fused): %w", bench, err)
		}
		if err := gateVariants(tr, mkVariants(), mkVariants(), replayWorkers); err != nil {
			return fmt.Errorf("bench %s (parallel fused, %d workers): %w", bench, replayWorkers, err)
		}
		timeFused := func(workers int) float64 {
			ns, _, _ := measure(func() {
				outs, _, err := machine.SimulateVariantsOpts(tr, mkVariants(),
					machine.VariantsOptions{Workers: workers})
				if err != nil {
					panic(err)
				}
				for _, o := range outs {
					machine.Recycle(o.M)
				}
			}, 3, 150*time.Millisecond)
			return ns
		}
		vNs := timeFused(1)
		pNs := timeFused(replayWorkers)
		perVariant := vNs / float64(len(clusterList))
		perParallel := pNs / float64(len(clusterList))

		for i := range pts {
			pts[i].VariantsNsPerRun = perVariant
			pts[i].VariantsSpeedup = pts[i].WakeupNsPerRun / perVariant
			pts[i].ReplayWorkers = replayWorkers
			pts[i].ParallelNsPerRun = perParallel
			pts[i].ParallelSpeedup = vNs / pNs
			rep.Points = append(rep.Points, pts[i])
			logSpeed += math.Log(pts[i].Speedup)
			logVariants += math.Log(pts[i].VariantsSpeedup)
			logParallel += math.Log(pts[i].ParallelSpeedup)
			logAlloc += math.Log(pts[i].AllocRatio)
			fmt.Fprintf(os.Stderr, "bench %-6s %dx: wakeup %.1fms oracle %.1fms variants %.1fms parallel %.1fms (%d workers) speedup %.2fx variants %.2fx parallel %.2fx allocs %.0f vs %.0f (%.0fx)\n",
				pts[i].Bench, pts[i].Clusters, pts[i].WakeupNsPerRun/1e6, pts[i].OracleNsPerRun/1e6,
				perVariant/1e6, perParallel/1e6, replayWorkers, pts[i].Speedup, pts[i].VariantsSpeedup,
				pts[i].ParallelSpeedup,
				pts[i].WakeupAllocsPerRun, pts[i].OracleAllocsPerRun, pts[i].AllocRatio)
		}
	}
	n := float64(len(rep.Points))
	rep.GeomeanSpeedup = math.Exp(logSpeed / n)
	rep.GeomeanVariantsSpeedup = math.Exp(logVariants / n)
	rep.GeomeanParallelSpeedup = math.Exp(logParallel / n)
	rep.GeomeanAllocRatio = math.Exp(logAlloc / n)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "geomean speedup %.2fx, geomean variants speedup %.2fx, geomean parallel speedup %.2fx (%d workers), geomean alloc ratio %.1fx -> %s\n",
		rep.GeomeanSpeedup, rep.GeomeanVariantsSpeedup, rep.GeomeanParallelSpeedup, replayWorkers, rep.GeomeanAllocRatio, path)
	return nil
}

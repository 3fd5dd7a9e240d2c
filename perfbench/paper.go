package main

import (
	"fmt"
	"runtime"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/server"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// The paper workload regenerates every servable experiment the way a
// user re-renders the paper: a cold pass on a fresh engine with an
// on-disk cache dir, then a warm pass on a second fresh engine reading
// that dir. It is the only workload on which critpath and listsched do
// real work.

// paperScale sizes the paper workload: instructions per benchmark
// trace, and the nominal seconds one pass takes on the reference
// machine (see passes).
type paperScale struct {
	insts   int
	nominal float64
}

var paperScales = map[string]paperScale{
	"full": {insts: 12000, nominal: 7.5},
	"tiny": {insts: 600, nominal: 1},
}

// paperPassOut is one paper pass: its timings, the SHA-256 of every
// rendered artifact in each phase, and the engine counters it moved.
type paperPassOut struct {
	times      passTimes
	cold, warm map[string]string
	sum        engine.Summary
}

func runPaper(c config, o *outcome) error {
	sc := paperScales[c.scale]
	seed := programSeed(c.seed, 0)
	serial := engine.Config{Workers: 1, ReplayWorkers: 1}
	n := passes(c.seconds, sc.nominal)
	o.conditions["insts_per_benchmark"] = sc.insts
	o.conditions["program_seed"] = seed
	o.conditions["passes"] = n
	o.conditions["engine_workers"] = serial.Workers
	o.conditions["replay_workers"] = serial.ReplayWorkers

	var outs []paperPassOut
	var ps []passTimes
	for i := 0; i < n; i++ {
		p, err := paperPass(c, sc.insts, seed, serial, nil, fmt.Sprintf("pass-%d", i))
		if err != nil {
			return err
		}
		outs = append(outs, p)
		ps = append(ps, p.times)
	}
	o.e2e, o.samples = endToEnd(ps, peakRSSMiB(), true)

	if c.trace {
		rec := newRecorder()
		rt0 := readRuntime()
		p, err := paperPass(c, sc.insts, seed, serial, rec, "traced")
		if err != nil {
			return err
		}
		addRuntimeLayers(o, rt0, readRuntime())
		o.traced, _ = endToEnd([]passTimes{p.times}, peakRSSMiB(), true)
		outs = append(outs, p)
		addEngineLayers(o, p.sum)
		for _, name := range server.ExperimentNames() {
			for _, phase := range []string{"cold", "warm"} {
				d := rec.durations("experiments." + phase + "." + name)
				if len(d) == 1 {
					o.layers["experiments."+phase+"."+name+"_s"] = metric{d[0], "s"}
				}
			}
		}
		addGenLayers(o, rec.durations("workload.generate"), len(workload.Names())*sc.insts)

		// Parallel probe: the same pass on every core with the engine's
		// default widths. Informational only: wall time at N cores does
		// not repeat on a shared machine.
		nproc := runtime.NumCPU()
		runtime.GOMAXPROCS(nproc)
		par, err := paperPass(c, sc.insts, seed, engine.Config{Workers: nproc}, nil, "parallel")
		runtime.GOMAXPROCS(1)
		if err != nil {
			return err
		}
		outs = append(outs, par)
		var serialWalls []float64
		for _, p := range ps {
			serialWalls = append(serialWalls, p.wall)
		}
		// Host time on both sides: the probe's factor is for one core.
		o.layers["engine.parallel_speedup"] = metric{median(serialWalls) / par.times.wall, "x"}
		o.conditions["parallel_engine_workers"] = nproc
		fillLayers(o)
		if err := writeSpans(c, o, rec); err != nil {
			return err
		}
	}

	want, err := paperWant(c, sc.insts, seed)
	if err != nil {
		return err
	}
	for i, p := range outs {
		for _, phase := range []struct {
			name string
			got  map[string]string
		}{{"cold", p.cold}, {"warm", p.warm}} {
			for _, name := range server.ExperimentNames() {
				o.attempted++
				if g, w := phase.got[name], want[name]; g != w {
					o.fail("paper pass %d %s %s: sha256 %s, want %s", i, phase.name, name, g, w)
				}
			}
		}
	}
	return nil
}

// paperWant is the expected SHA-256 of every artifact: the committed
// digests for the default seed, otherwise a reference rendered by
// server.RunLocal on a memory-only engine, outside any timed region.
func paperWant(c config, insts int, seed uint64) (map[string]string, error) {
	if c.seed == 1 {
		return paperDigests[c.scale], nil
	}
	eng := engine.New(engine.Config{Workers: 1, ReplayWorkers: 1})
	arts, err := server.RunLocal(server.Spec{Experiments: server.ExperimentNames(), Insts: insts, Seed: seed}, eng)
	if err != nil {
		return nil, fmt.Errorf("paper reference: %w", err)
	}
	want := map[string]string{}
	for _, a := range arts {
		want[a.Experiment] = digest(a.Output)
	}
	return want, nil
}

// paperPass runs one set-up, cold pass and warm pass in a fresh cache
// dir, which it removes afterwards.
func paperPass(c config, insts int, seed uint64, cfg engine.Config, rec *recorder, run string) (paperPassOut, error) {
	var out paperPassOut
	dir, cleanup, err := tempDir(c, "paper-*")
	if err != nil {
		return out, err
	}
	defer cleanup()
	cfg.CacheDir = dir

	// Set-up: a fresh engine and the 12 traces, under the key and
	// generator the experiments package uses.
	tp := startPass(c.probe)
	setup := rec.begin("paper.setup", run, 0, nil)
	eng := engine.New(cfg)
	for _, bench := range workload.Names() {
		key := engine.TraceKey{Bench: bench, Insts: insts, Seed: seed}
		if _, err := eng.Trace(key, func() (*trace.Trace, error) {
			sp := rec.begin("workload.generate", run, setup.id, nil)
			defer sp.end()
			return workload.Generate(bench, insts, seed)
		}); err != nil {
			return out, fmt.Errorf("paper set-up %s: %w", bench, err)
		}
	}
	setup.end()

	tp.primary()
	out.cold, out.times.ops = renderAll(c.probe, eng, insts, seed, rec, "cold", run)
	coldSum := eng.Summary()

	tp.repeat()
	warmEng := engine.New(cfg)
	out.warm, _ = renderAll(c.probe, warmEng, insts, seed, rec, "warm", run)
	tp.done(&out.times)

	out.times.simInst = float64(coldSum.SimInsts)
	out.times.completed = float64(len(out.cold))
	out.sum = addSummary(coldSum, warmEng.Summary(), 1)
	return out, nil
}

// renderAll renders every experiment on eng, one server.RunLocal call
// each, and returns each artifact's SHA-256 (an error text on failure)
// and each call's interval.
func renderAll(probe *speedProbe, eng *engine.Engine, insts int, seed uint64, rec *recorder, phase, run string) (map[string]string, []opSpan) {
	digests := map[string]string{}
	var ops []opSpan
	parent := rec.begin("paper."+phase, run, 0, eng)
	defer parent.end()
	for _, name := range server.ExperimentNames() {
		probe.tick()
		sp := rec.begin("experiments."+phase+"."+name, run, parent.id, eng)
		start := time.Now()
		arts, err := server.RunLocal(server.Spec{Experiments: []string{name}, Insts: insts, Seed: seed}, eng)
		ops = append(ops, opSpan{start, time.Now()})
		sp.end()
		if err != nil {
			digests[name] = "error: " + err.Error()
			continue
		}
		digests[name] = digest(arts[0].Output)
	}
	return digests, ops
}

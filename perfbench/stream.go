package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clustersim/internal/machine"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// The stream workload simulates one generated gcc trace store window at
// a time, the configuration of BENCH_trace.json: trace decoding and the
// machine's per-window loop do nearly all the work, and engine,
// critpath, listsched, experiments and server do none.

const (
	streamBench  = "gcc"
	streamWindow = int64(trace.DefaultChunkLen)
)

var streamScales = map[string]paperScale{
	"full": {insts: 4_000_000, nominal: 5},
	"tiny": {insts: 150_000, nominal: 1},
}

// streamTotal is what the output check compares.
type streamTotal struct {
	Cycles, Insts int64
	Windows       int
}

func totalOf(sr machine.StreamResult) streamTotal {
	return streamTotal{Cycles: sr.Cycles, Insts: sr.Insts, Windows: sr.Windows}
}

// streamSegment is the machine every window runs on: 4 clusters with
// dependence-based steering.
func streamSegment(int) (machine.Config, machine.SteerPolicy, machine.Hooks, error) {
	return machine.NewConfig(4), &steer.DepBased{}, machine.Hooks{}, nil
}

// windowClock times each window from the benchmark's SegmentFunc call
// to its WindowObserver call. SimulateStoreObserved is serial, so it
// needs no lock.
type windowClock struct {
	probe  *speedProbe
	rec    *recorder
	run    string
	parent int
	starts []time.Time
	ops    []opSpan
}

func (w *windowClock) segment(seg int) (machine.Config, machine.SteerPolicy, machine.Hooks, error) {
	w.probe.tick()
	w.starts = append(w.starts, time.Now())
	return streamSegment(seg)
}

func (w *windowClock) observe(seg int, _ int64, _ *machine.Machine) error {
	op := opSpan{w.starts[seg], time.Now()}
	w.ops = append(w.ops, op)
	w.rec.add("machine.window", w.run, w.parent, op.start, op.end)
	return nil
}

// simulate runs one windowed pass over st.
func (w *windowClock) simulate(st *trace.Store, name string) (machine.StreamResult, error) {
	sp := w.rec.begin(name, w.run, 0, nil)
	defer sp.end()
	w.parent, w.starts, w.ops = sp.id, nil, nil
	return machine.SimulateStoreObserved(st, streamWindow, w.segment, w.observe)
}

// streamPassOut is one stream pass: timings, both simulation results,
// and (traced pass only) the layer numbers.
type streamPassOut struct {
	times         passTimes
	first, second machine.StreamResult
	piped         []machine.StreamResult
}

func runStream(c config, o *outcome) error {
	sc := streamScales[c.scale]
	seed := programSeed(c.seed, 0)
	n := passes(c.seconds, sc.nominal)
	o.conditions["insts"] = sc.insts
	o.conditions["benchmark"] = streamBench
	o.conditions["window_insts"] = streamWindow
	o.conditions["program_seed"] = seed
	o.conditions["passes"] = n
	o.conditions["pipeline_depth"] = 1

	var outs []streamPassOut
	var ps []passTimes
	for i := 0; i < n; i++ {
		p, err := streamPass(c, sc.insts, seed, nil, fmt.Sprintf("pass-%d", i), o)
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
		p, err := streamPass(c, sc.insts, seed, rec, "traced", o)
		if err != nil {
			return err
		}
		addRuntimeLayers(o, rt0, readRuntime())
		o.traced, _ = endToEnd([]passTimes{p.times}, peakRSSMiB(), true)
		outs = append(outs, p)
		o.layers["machine.windows"] = metric{float64(p.first.Windows), "count"}
		o.layers["machine.window_ms_p50"] = metric{percentile(p.times.opHostMs, 0.50), "ms"}
		o.layers["machine.window_ms_p99"] = metric{percentile(p.times.opHostMs, 0.99), "ms"}
		addGenLayers(o, rec.durations("workload.generate_to_file"), sc.insts)
		fillLayers(o)
		if err := writeSpans(c, o, rec); err != nil {
			return err
		}
	}

	want, err := streamWant(c, sc.insts, seed)
	if err != nil {
		return err
	}
	for i, p := range outs {
		for j, sr := range append([]machine.StreamResult{p.first, p.second}, p.piped...) {
			windows := int64(max(sr.Windows, 1))
			o.attempted += windows
			if got := totalOf(sr); got != want {
				o.failed += windows - 1 // fail counts the last one
				o.fail("stream pass %d simulation %d: totals %+v, want %+v", i, j, got, want)
			}
		}
	}
	return nil
}

// streamWant is the expected totals: committed for the default seed,
// otherwise the in-memory reference (machine.SimulateSliced over
// workload.Generate), computed outside any timed region.
func streamWant(c config, insts int, seed uint64) (streamTotal, error) {
	if c.seed == 1 {
		return streamTotals[c.scale], nil
	}
	tr, err := workload.Generate(streamBench, insts, seed)
	if err != nil {
		return streamTotal{}, fmt.Errorf("stream reference: %w", err)
	}
	sr, err := machine.SimulateSliced(tr, streamWindow, streamSegment)
	if err != nil {
		return streamTotal{}, fmt.Errorf("stream reference: %w", err)
	}
	return totalOf(sr), nil
}

// streamPass generates a fresh store, then simulates it twice. With a
// recorder it also times one Store.Scan pass and the pipelined probe,
// recording their layer metrics in o.
func streamPass(c config, insts int, seed uint64, rec *recorder, run string, o *outcome) (streamPassOut, error) {
	var out streamPassOut
	dir, cleanup, err := tempDir(c, "stream-*")
	if err != nil {
		return out, err
	}
	defer cleanup()
	path := filepath.Join(dir, streamBench+".ctr")

	tp := startPass(c.probe)
	gen := rec.begin("workload.generate_to_file", run, 0, nil)
	err = workload.GenerateToFile(streamBench, insts, seed, path, trace.WriterOptions{})
	gen.end()
	if err != nil {
		return out, fmt.Errorf("stream set-up: %w", err)
	}
	st, err := trace.Open(path, trace.OpenOptions{})
	if err != nil {
		return out, fmt.Errorf("stream set-up: %w", err)
	}
	defer st.Close()

	w := &windowClock{probe: c.probe, rec: rec, run: run}
	tp.primary()
	out.first, err = w.simulate(st, "stream.simulate")
	if err != nil {
		return out, fmt.Errorf("stream simulate: %w", err)
	}
	out.times.ops = w.ops
	tp.repeat()
	out.second, err = w.simulate(st, "stream.simulate_again")
	if err != nil {
		return out, fmt.Errorf("stream simulate again: %w", err)
	}
	tp.done(&out.times)
	out.times.simInst = float64(out.first.Insts)
	out.times.completed = float64(out.first.Windows)
	if rec == nil {
		return out, nil
	}

	fi, err := os.Stat(path)
	if err != nil {
		return out, err
	}
	o.layers["trace.store_mib"] = metric{float64(fi.Size()) / (1 << 20), "MiB"}
	var scanned int64
	scan := rec.begin("trace.scan", run, 0, nil)
	err = st.Scan(func(ch *trace.Chunk) error {
		scanned += int64(ch.N)
		return nil
	})
	d := scan.end().Seconds()
	if err != nil {
		return out, fmt.Errorf("stream scan: %w", err)
	}
	if scanned != st.Len() {
		return out, fmt.Errorf("stream scan visited %d of %d instructions", scanned, st.Len())
	}
	o.layers["trace.scan_s"] = metric{d, "s"}
	o.layers["trace.scan_minst_per_s"] = metric{float64(scanned) / d / 1e6, "Minst/s"}

	// Pipelined probe: depth nproc against depth 1, both on every core.
	// Informational only: wall time at N cores does not repeat here.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	defer runtime.GOMAXPROCS(1)
	var walls []float64
	for _, depth := range []int{1, nproc} {
		start := time.Now()
		sr, err := machine.SimulateStorePiped(st, streamWindow, streamSegment, nil, depth)
		if err != nil {
			return out, fmt.Errorf("stream piped depth %d: %w", depth, err)
		}
		walls = append(walls, time.Since(start).Seconds())
		out.piped = append(out.piped, sr)
	}
	o.layers["machine.piped_speedup"] = metric{walls[0] / walls[1], "x"}
	o.conditions["piped_depth"] = nproc
	return out, nil
}

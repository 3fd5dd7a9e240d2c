package machine_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"weak"

	"clustersim/internal/machine"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// openStoreFor writes tr into an in-memory CTR2 store of chunkLen-long
// chunks; callers pick a chunkLen that gives several chunks, so
// segmented reads cross chunk boundaries.
func openStoreFor(t *testing.T, tr *trace.Trace, chunkLen int) *trace.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteStore(&buf, tr, trace.WriterOptions{ChunkLen: chunkLen}); err != nil {
		t.Fatal(err)
	}
	st, err := trace.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func depBasedSegment(clusters int) machine.SegmentFunc {
	return func(seg int) (machine.Config, machine.SteerPolicy, machine.Hooks, error) {
		return machine.NewConfig(clusters), &steer.DepBased{}, machine.Hooks{}, nil
	}
}

func TestSimulateStoreMatchesSliced(t *testing.T) {
	// The streaming path (windows materialized from CTR2 chunks) must be
	// result-identical to the same segmentation of the in-memory trace,
	// with windows both aligned and misaligned to chunk boundaries.
	tr, err := workload.Generate("gcc", 6000, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreFor(t, tr, 512)
	for _, window := range []int64{512, 700, 1999, 6000, 10000} {
		got, err := machine.SimulateStoreObserved(st, window, depBasedSegment(4), nil)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		want, err := machine.SimulateSliced(tr, window, depBasedSegment(4))
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if got != want {
			t.Fatalf("window %d: streaming %+v != in-memory %+v", window, got, want)
		}
		if got.Insts != int64(tr.Len()) {
			t.Fatalf("window %d: simulated %d insts, trace has %d", window, got.Insts, tr.Len())
		}
		wantWindows := int((int64(tr.Len()) + window - 1) / window)
		if got.Windows != wantWindows {
			t.Fatalf("window %d: %d windows, want %d", window, got.Windows, wantWindows)
		}
	}
}

func TestSimulateStoreWholeTraceWindowIsPlainRun(t *testing.T) {
	// A window at least as long as the trace degenerates to one ordinary
	// whole-trace simulation.
	tr, err := workload.Generate("vpr", 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreFor(t, tr, 256)
	sr, err := machine.SimulateStoreObserved(st, int64(tr.Len()), depBasedSegment(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.NewConfig(4), tr, &steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Run()
	if sr.Windows != 1 {
		t.Fatalf("windows = %d, want 1", sr.Windows)
	}
	if sr.Result != want {
		t.Fatalf("segmented single-window run %+v != plain run %+v", sr.Result, want)
	}
}

func TestSimulateStoreEmptyAndInvalid(t *testing.T) {
	empty := openStoreFor(t, trace.Rebuild(nil), 16)
	sr, err := machine.SimulateStoreObserved(empty, 100, depBasedSegment(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Windows != 0 || sr.Insts != 0 {
		t.Fatalf("empty store simulated %d windows, %d insts", sr.Windows, sr.Insts)
	}
	if _, err := machine.SimulateStoreObserved(empty, 0, depBasedSegment(2), nil); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := machine.SimulateStoreObserved(empty, -5, depBasedSegment(2), nil); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestSimulateStoreSegmentErrorPropagates(t *testing.T) {
	tr, err := workload.Generate("gzip", 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreFor(t, tr, 256)
	boom := errors.New("segment build failed")
	_, err = machine.SimulateStoreObserved(st, 500, func(seg int) (machine.Config, machine.SteerPolicy, machine.Hooks, error) {
		if seg == 2 {
			return machine.Config{}, nil, machine.Hooks{}, boom
		}
		return machine.NewConfig(2), &steer.DepBased{}, machine.Hooks{}, nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped segment error", err)
	}
}

// TestSimulateStoreFreesFinishedWindows pins the streaming paths' memory
// promise under buffer reuse. Each window's trace is held through a weak
// pointer; at window k's observer call, the finished windows' traces
// that a GC cannot collect must be buffers the run is still reusing —
// the current window's alone on the serial path, at most depth+2 on the
// pipelined one — and once the run returns, a GC must collect them all:
// nothing pooled (machines, packed state, dependence graphs) may keep a
// window trace alive.
func TestSimulateStoreFreesFinishedWindows(t *testing.T) {
	tr, err := workload.Generate("gcc", 6000, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreFor(t, tr, 512)
	const window = 1000
	windows := (tr.Len() + window - 1) / window
	live := func(ptrs []weak.Pointer[trace.Trace]) map[*trace.Trace]bool {
		runtime.GC()
		set := map[*trace.Trace]bool{}
		for _, p := range ptrs {
			if v := p.Value(); v != nil {
				set[v] = true
			}
		}
		return set
	}
	for _, tc := range []struct {
		name  string
		depth int
		bound int // distinct window traces live at once
	}{{"serial", 1, 1}, {"piped", 3, 3 + 2}} {
		var ptrs []weak.Pointer[trace.Trace]
		sr, err := machine.SimulateStorePiped(st, window, depBasedSegment(4), func(seg int, base int64, m *machine.Machine) error {
			ptrs = append(ptrs, weak.Make(m.Trace()))
			set := live(ptrs)
			if !set[m.Trace()] || len(set) > tc.bound {
				t.Errorf("%s window %d: %d window traces reachable, want the current one among at most %d",
					tc.name, seg, len(set), tc.bound)
			}
			return nil
		}, tc.depth)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Windows != windows || len(ptrs) != windows {
			t.Fatalf("%s: simulated %d windows, observed %d, want %d", tc.name, sr.Windows, len(ptrs), windows)
		}
		if set := live(ptrs); len(set) > 0 {
			t.Errorf("%s: %d window traces still reachable after the run", tc.name, len(set))
		}
	}
}

// TestSimulateStoreSecondPassAllocBound pins that windows decode into
// reused buffers: once a first pass has warmed the machine pools and the
// store's scratch chunk, a second serial pass over the same store
// allocates one window trace (at most 64 B per instruction of the
// window) plus a few KiB per window for its segment stack, front-end
// profile and result — not a trace, producer index or decoded chunk per
// window, which came to ~108 B per instruction.
func TestSimulateStoreSecondPassAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	// One P: a sync.Pool item parked in another P's private slot would
	// read as a miss.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr, err := workload.Generate("gcc", 40000, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreFor(t, tr, 1536) // windows straddle chunk boundaries
	const window = 2048
	pass := func() machine.StreamResult {
		sr, err := machine.SimulateStoreObserved(st, window, depBasedSegment(4), nil)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	first := pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second := pass()
	runtime.ReadMemStats(&after)
	if second != first {
		t.Fatalf("second pass %+v != first %+v", second, first)
	}
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(64*window + 4<<10*second.Windows)
	t.Logf("second pass: %d B over %d windows of %d instructions", got, second.Windows, window)
	if got > limit {
		t.Fatalf("second pass allocates %d B over %d windows, want at most %d", got, second.Windows, limit)
	}
}

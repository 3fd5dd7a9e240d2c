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

// openStoreFor writes tr into an in-memory CTR2 store and opens it with
// a small chunk window so segmented reads cross chunk boundaries.
func openStoreFor(t *testing.T, tr *trace.Trace, chunkLen int) *trace.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteStore(&buf, tr, trace.WriterOptions{ChunkLen: chunkLen}); err != nil {
		t.Fatal(err)
	}
	st, err := trace.OpenBytes(buf.Bytes(), trace.OpenOptions{WindowChunks: 2})
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
		got, err := machine.SimulateStore(st, window, depBasedSegment(4))
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
	sr, err := machine.SimulateStore(st, int64(tr.Len()), depBasedSegment(4))
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
	sr, err := machine.SimulateStore(empty, 100, depBasedSegment(2))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Windows != 0 || sr.Insts != 0 {
		t.Fatalf("empty store simulated %d windows, %d insts", sr.Windows, sr.Insts)
	}
	if _, err := machine.SimulateStore(empty, 0, depBasedSegment(2)); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := machine.SimulateStore(empty, -5, depBasedSegment(2)); err == nil {
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
	_, err = machine.SimulateStore(st, 500, func(seg int) (machine.Config, machine.SteerPolicy, machine.Hooks, error) {
		if seg == 2 {
			return machine.Config{}, nil, machine.Hooks{}, boom
		}
		return machine.NewConfig(2), &steer.DepBased{}, machine.Hooks{}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped segment error", err)
	}
}

// TestSimulateStoreFreesFinishedWindows pins SimulateStore's memory
// promise: only the current window's trace, machine and event log are
// live. Each window trace is held through a weak pointer; once a window
// is finished (its machine recycled), a GC must be able to collect it —
// nothing pooled (machines, packed state, dependence graphs) may keep it alive.
func TestSimulateStoreFreesFinishedWindows(t *testing.T) {
	tr, err := workload.Generate("gcc", 6000, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreFor(t, tr, 512)
	const window = 1000
	collected := func(ptrs []weak.Pointer[trace.Trace]) []int {
		runtime.GC()
		var live []int
		for i, p := range ptrs {
			if p.Value() != nil {
				live = append(live, i)
			}
		}
		return live
	}

	// Serial: at window k's observer call, windows before k are done.
	var ptrs []weak.Pointer[trace.Trace]
	sr, err := machine.SimulateStoreObserved(st, window, depBasedSegment(4), func(seg int, base int64, m *machine.Machine) error {
		if live := collected(ptrs); len(live) > 0 {
			t.Errorf("serial window %d: finished windows %v still reachable", seg, live)
		}
		ptrs = append(ptrs, weak.Make(m.Trace()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	windows := (tr.Len() + window - 1) / window
	if sr.Windows != windows || len(ptrs) != windows {
		t.Fatalf("simulated %d windows, observed %d, want %d", sr.Windows, len(ptrs), windows)
	}
	if live := collected(ptrs); len(live) > 0 {
		t.Errorf("serial: windows %v still reachable after the run", live)
	}

	// Pipelined: after the run every window is finished.
	ptrs = nil
	if _, err := machine.SimulateStorePiped(st, window, depBasedSegment(4), func(seg int, base int64, m *machine.Machine) error {
		ptrs = append(ptrs, weak.Make(m.Trace()))
		return nil
	}, 3); err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != windows {
		t.Fatalf("piped: observed %d windows, want %d", len(ptrs), windows)
	}
	if live := collected(ptrs); len(live) > 0 {
		t.Errorf("piped: windows %v still reachable after the run", live)
	}
}

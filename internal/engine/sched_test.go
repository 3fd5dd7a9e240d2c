package engine

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"clustersim/internal/listsched"
	"clustersim/internal/machine"
)

func testSchedKey(pri string, clusters int) SchedKey {
	return SchedKey{
		Harvest: SimKey{Bench: "vpr", Insts: 1000, Seed: 1, Fwd: 2, Clusters: 1, Stack: "dep"},
		Config:  listsched.Config{Clusters: clusters, Width: 1, Int: 1, FP: 1, Mem: 1, Fwd: 2},
		Pri:     pri,
	}
}

// TestHarvestSharesItsRun: a harvest miss simulates once, copies the
// scheduler input out of the live machine, and caches the run's result
// under its sim key; later harvests and Sims of the key hit.
func TestHarvestSharesItsRun(t *testing.T) {
	e := New(Config{Workers: 2})
	var runs atomic.Int64
	run := func(derive func(*machine.Machine) error) (Artifact, error) { runs.Add(1); return runTiny(1, derive) }
	h1, err := e.HarvestCtx(nil, testSimKey(1), run)
	if err != nil {
		t.Fatal(err)
	}
	var want listsched.Input
	if _, err := runTiny(1, func(m *machine.Machine) error {
		want = listsched.FromMachineRun(m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1.In, want) {
		t.Error("harvest input differs from a fresh run's")
	}
	h2, err := e.HarvestCtx(nil, testSimKey(1), run)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h1 {
		t.Error("second harvest is not the cached one")
	}
	if _, err := simOne(e, context.Background(), testSimKey(1), run); err != nil {
		t.Fatal(err)
	}
	if s := e.Summary(); runs.Load() != 1 || s.SimMisses != 1 || s.SimHits != 2 {
		t.Errorf("runs/sim misses/hits = %d/%d/%d, want 1/1/2", runs.Load(), s.SimMisses, s.SimHits)
	}
}

// TestHarvestSharedAcrossFwdOnOneCluster: a 1-cluster harvest serves
// every forwarding latency from one simulation, while each latency
// keeps its own schedule keys.
func TestHarvestSharedAcrossFwdOnOneCluster(t *testing.T) {
	e := New(Config{Workers: 1})
	var runs atomic.Int64
	run := func(derive func(*machine.Machine) error) (Artifact, error) { runs.Add(1); return runTiny(1, derive) }
	var first *Harvest
	for _, fwd := range []int{2, 1, 4} {
		k := testSimKey(1)
		k.Fwd = fwd
		h, err := e.HarvestCtx(nil, k, run)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = h
		} else if h != first {
			t.Errorf("fwd %d harvest is not the fwd 2 one", fwd)
		}
	}
	if s := e.Summary(); runs.Load() != 1 || s.SimMisses != 1 || s.SimHits != 2 {
		t.Errorf("runs/sim misses/hits = %d/%d/%d, want 1/1/2", runs.Load(), s.SimMisses, s.SimHits)
	}
}

// TestHarvestOrderMemo: a harvest keeps the first issue order of each
// priority name as a copy, charges it to the harvest's memory entry at
// 4 B/inst, and loses it with the entry.
func TestHarvestOrderMemo(t *testing.T) {
	e := New(Config{Workers: 1})
	h, err := e.HarvestCtx(nil, testSimKey(1), tinyRun(1))
	if err != nil {
		t.Fatal(err)
	}
	n := len(h.In.Release)
	if h.Order("oracle") != nil {
		t.Fatal("fresh harvest holds an order")
	}
	before := e.Summary().CacheBytes
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	h.KeepOrder("oracle", ord)
	ord[0] = -1 // the memo holds a copy
	if got := h.Order("oracle"); len(got) != n || got[0] != 0 {
		t.Fatalf("kept order = %v..., want the identity", got[:1])
	}
	h.KeepOrder("oracle", make([]int32, n)) // the first order stays
	if got := h.Order("oracle"); len(got) != n || got[1] != 1 {
		t.Error("a second KeepOrder replaced the first order")
	}
	if got, want := e.Summary().CacheBytes-before, int64(n)*bytesPerOrderInst; got != want {
		t.Errorf("memo charged %d bytes, want %d", got, want)
	}

	// Once the harvest is dropped, a new one starts with no orders and
	// an order kept on the old one charges nothing.
	e.mu.Lock()
	budget := e.mem.max
	e.mem.max = 1
	e.mem.shrink()
	e.mem.max = budget
	e.mu.Unlock()
	h.KeepOrder("loc16", ord)
	if b := e.Summary().CacheBytes; b != 0 {
		t.Errorf("dropped harvest's order charged %d bytes", b)
	}
	h2, err := e.HarvestCtx(nil, testSimKey(1), tinyRun(1))
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h || h2.Order("oracle") != nil {
		t.Error("re-simulated harvest carries the dropped harvest's orders")
	}
}

// TestHarvestOrderConcurrent: batches reading and keeping orders on one
// harvest at once keep exactly one order per name.
func TestHarvestOrderConcurrent(t *testing.T) {
	e := New(Config{Workers: 4})
	h, err := e.HarvestCtx(nil, testSimKey(1), tinyRun(1))
	if err != nil {
		t.Fatal(err)
	}
	n := len(h.In.Release)
	before := e.Summary().CacheBytes
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pri := range []string{"oracle", "loc16", "binary"} {
				if h.Order(pri) == nil {
					h.KeepOrder(pri, make([]int32, n))
				}
			}
		}()
	}
	wg.Wait()
	if got, want := e.Summary().CacheBytes-before, 3*int64(n)*bytesPerOrderInst; got != want {
		t.Errorf("memo charged %d bytes, want %d", got, want)
	}
}

func TestSchedulesBatchesMissesAndCaches(t *testing.T) {
	e := New(Config{Workers: 1})
	keys := []SchedKey{testSchedKey("oracle", 2), testSchedKey("oracle", 4), testSchedKey("loc16", 4)}
	calls := 0
	compute := func(miss []int) ([]SchedSummary, error) {
		calls++
		out := make([]SchedSummary, len(miss))
		for j, i := range miss {
			out[j] = SchedSummary{Insts: 1000, Makespan: int64(100 + i), CrossEdges: int64(i)}
		}
		return out, nil
	}
	got, err := e.SchedulesCtx(context.Background(), keys, compute)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("compute called %d times, want 1 fused batch", calls)
	}
	for i := range keys {
		if got[i].Makespan != int64(100+i) {
			t.Fatalf("key %d: makespan %d, want %d", i, got[i].Makespan, 100+i)
		}
	}

	// Second submission is all memory hits; compute must not run.
	again, err := e.SchedulesCtx(context.Background(), keys, func(miss []int) ([]SchedSummary, error) {
		t.Fatalf("computed %v despite warm cache", miss)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if again[2] != got[2] {
		t.Fatal("cached summary differs from computed one")
	}

	// A superset batch recomputes only the new key.
	wider := append(append([]SchedKey(nil), keys...), testSchedKey("binary", 8))
	_, err = e.SchedulesCtx(context.Background(), wider, func(miss []int) ([]SchedSummary, error) {
		if len(miss) != 1 || miss[0] != 3 {
			t.Fatalf("misses %v, want [3]", miss)
		}
		return []SchedSummary{{Insts: 1000, Makespan: 999}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	s := e.Summary()
	if s.SchedMisses != 4 || s.SchedHits != 6 || s.SchedJobs != 2 {
		t.Errorf("counters hits=%d misses=%d jobs=%d, want 6/4/2", s.SchedHits, s.SchedMisses, s.SchedJobs)
	}
}

func TestSchedulesDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	keys := []SchedKey{testSchedKey("oracle", 2), testSchedKey("binary", 8)}
	want := []SchedSummary{{Insts: 7, Makespan: 41, CrossEdges: 3, DyadicCross: 1}, {Insts: 7, Makespan: 52}}

	e1 := New(Config{Workers: 1, CacheDir: dir})
	if _, err := e1.SchedulesCtx(context.Background(), keys, func(miss []int) ([]SchedSummary, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}

	// A fresh engine over the same directory serves from disk.
	e2 := New(Config{Workers: 1, CacheDir: dir})
	got, err := e2.SchedulesCtx(context.Background(), keys, func(miss []int) ([]SchedSummary, error) {
		t.Fatalf("computed %v despite disk cache", miss)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: %+v from disk, want %+v", i, got[i], want[i])
		}
	}
	if s := e2.Summary(); s.SchedDiskHits != 2 {
		t.Errorf("disk hits %d, want 2", s.SchedDiskHits)
	}
}

func TestSchedulesComputeSizeMismatch(t *testing.T) {
	e := New(Config{Workers: 1})
	_, err := e.SchedulesCtx(context.Background(), []SchedKey{testSchedKey("oracle", 2)}, func(miss []int) ([]SchedSummary, error) {
		return nil, nil
	})
	if err == nil {
		t.Fatal("accepted short compute result")
	}
}

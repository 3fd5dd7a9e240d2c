package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

const testInsts = 300

func testTraceKey(seed uint64) TraceKey {
	return TraceKey{Bench: "gzip", Insts: testInsts, Seed: seed}
}

func testSimKey(seed uint64) SimKey {
	return SimKey{Bench: "gzip", Insts: testInsts, Seed: seed,
		Fwd: 2, EpochLen: 1024, Clusters: 1, Stack: "depbased"}
}

// testAnaKey is the analysis of testSimKey(seed)'s run at the given
// depth.
func testAnaKey(seed uint64, full bool) AnalysisKey {
	return AnalysisKey{Sim: testSimKey(seed), Full: full}
}

// runTiny executes a real miniature simulation and hands back the live
// machine, as production jobs do.
func runTiny(seed uint64) (*machine.Machine, Artifact, error) {
	tr, err := workload.Generate("gzip", testInsts, seed)
	if err != nil {
		return nil, Artifact{}, err
	}
	m, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		return nil, Artifact{}, err
	}
	return m, Artifact{Res: m.Run()}, nil
}

// tinyRun is runTiny as a job body.
func tinyRun(seed uint64) Run {
	return func() (*machine.Machine, Artifact, error) { return runTiny(seed) }
}

func TestTraceCaching(t *testing.T) {
	e := New(Config{Workers: 2})
	var gens atomic.Int64
	gen := func() (*trace.Trace, error) {
		gens.Add(1)
		return workload.Generate("gzip", testInsts, 1)
	}
	tr1, err := e.Trace(testTraceKey(1), gen)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := e.Trace(testTraceKey(1), gen)
	if err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 1 {
		t.Errorf("generator ran %d times, want 1", gens.Load())
	}
	if tr1 != tr2 {
		t.Error("cached trace is not the same object")
	}
	if s := e.Summary(); s.TraceHits != 1 || s.TraceMisses != 1 {
		t.Errorf("trace hits/misses = %d/%d, want 1/1", s.TraceHits, s.TraceMisses)
	}
	// A different key is a separate job.
	if _, err := e.Trace(testTraceKey(2), gen); err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 2 {
		t.Errorf("distinct key did not generate (gens=%d)", gens.Load())
	}
}

func TestSimCacheHitMissAccounting(t *testing.T) {
	e := New(Config{Workers: 2})
	var runs atomic.Int64
	run := func() (*machine.Machine, Artifact, error) {
		runs.Add(1)
		return runTiny(1)
	}
	var art Artifact
	for i := 0; i < 3; i++ {
		a, err := e.SimCtx(context.Background(), testSimKey(1), run)
		if err != nil {
			t.Fatal(err)
		}
		art = a
	}
	if runs.Load() != 1 {
		t.Fatalf("sim ran %d times, want 1", runs.Load())
	}
	s := e.Summary()
	if s.SimHits != 2 || s.SimMisses != 1 {
		t.Errorf("sim hits/misses = %d/%d, want 2/1", s.SimHits, s.SimMisses)
	}
	if s.SimJobs != 1 || s.SimInsts != art.Res.Insts {
		t.Errorf("sim jobs/insts = %d/%d, want 1/%d", s.SimJobs, s.SimInsts, art.Res.Insts)
	}
	if s.HitRate() < 0.6 || s.HitRate() > 0.7 {
		t.Errorf("hit rate = %v, want 2/3", s.HitRate())
	}
}

// TestSimConcurrentDedup is the cross-figure sharing property: many
// concurrent submissions of one key simulate exactly once.
func TestSimConcurrentDedup(t *testing.T) {
	e := New(Config{Workers: 8})
	var runs atomic.Int64
	const submitters = 16
	arts := make([]Artifact, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := e.SimCtx(context.Background(), testSimKey(1), func() (*machine.Machine, Artifact, error) {
				runs.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return runTiny(1)
			})
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = a
		}(i)
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Errorf("concurrent submissions ran the sim %d times, want 1", runs.Load())
	}
	for i := 1; i < submitters; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("submitter %d got a different artifact", i)
		}
	}
	s := e.Summary()
	if got := s.SimHits + s.SimMisses; got != submitters {
		t.Errorf("hits+misses = %d, want %d", got, submitters)
	}
	if s.SimMisses != 1 {
		t.Errorf("misses = %d, want 1", s.SimMisses)
	}
}

// TestLeaderFinishingBeforeLookupIsShared opens the window between a
// caller's decision to look a key up and the lookup itself, and lets
// the key's leader store its value and leave the flight inside it. The
// follower must be served that value, not compute the key again: the
// cache lookup and the in-flight check share one lock hold, for single
// keys and batches alike.
func TestLeaderFinishingBeforeLookupIsShared(t *testing.T) {
	schedKeys := []SchedKey{testSchedKey("oracle", 2), testSchedKey("oracle", 4)}
	variantKeys := []SimKey{testSimKey(1), testSimKey(2)}
	for _, tc := range []struct {
		name string
		key  string // the key whose follower lookup the hook stalls
		call func(e *Engine, work func()) error
		// computed counts the engine's own computations of the key (an
		// analysis may repeat without re-running its cached simulation).
		computed func(Summary) int64
	}{
		{"trace", testTraceKey(1).String(), func(e *Engine, work func()) error {
			_, err := e.Trace(testTraceKey(1), func() (*trace.Trace, error) {
				work()
				return workload.Generate("gzip", testInsts, 1)
			})
			return err
		}, func(s Summary) int64 { return s.TraceMisses }},
		{"sim", testSimKey(1).String(), func(e *Engine, work func()) error {
			_, err := e.SimCtx(context.Background(), testSimKey(1), func() (*machine.Machine, Artifact, error) {
				work()
				return runTiny(1)
			})
			return err
		}, func(s Summary) int64 { return s.SimMisses }},
		{"variants", testSimKey(1).String(), func(e *Engine, work func()) error {
			_, err := e.SimVariantsCtx(context.Background(), variantKeys, func(miss []int) ([]Artifact, error) {
				work()
				return make([]Artifact, len(miss)), nil
			})
			return err
		}, func(s Summary) int64 { return s.SimMisses / int64(len(variantKeys)) }},
		{"analysis", testAnaKey(1, true).String(), func(e *Engine, work func()) error {
			_, err := e.AnalysisCtx(context.Background(), testAnaKey(1, true), func() (*machine.Machine, Artifact, error) {
				work()
				return runTiny(1)
			})
			return err
		}, func(s Summary) int64 { return s.AnaMisses }},
		{"schedules", schedKeys[0].String(), func(e *Engine, work func()) error {
			_, err := e.SchedulesCtx(context.Background(), schedKeys, func(miss []int) ([]SchedSummary, error) {
				work()
				return make([]SchedSummary, len(miss)), nil
			})
			return err
		}, func(s Summary) int64 { return s.SchedMisses / int64(len(schedKeys)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Workers: 2})
			var works, lookups atomic.Int64
			started, release := make(chan struct{}), make(chan struct{})
			leaderDone := make(chan error, 1)
			// The leader's work blocks until the follower reaches its
			// lookup; any later work is the duplicate this test forbids.
			work := func() {
				if works.Add(1) == 1 {
					close(started)
					<-release
				}
			}
			var leaderErr error
			e.beforeLookup = func(key string) {
				if key != tc.key || lookups.Add(1) != 2 {
					return
				}
				close(release)
				leaderErr = <-leaderDone
			}
			go func() { leaderDone <- tc.call(e, work) }()
			<-started
			if err := tc.call(e, work); err != nil {
				t.Fatal(err)
			}
			if leaderErr != nil {
				t.Fatal(leaderErr)
			}
			if n := tc.computed(e.Summary()); n != 1 || works.Load() != 1 {
				t.Fatalf("computed %d times (%d runs): the follower missed the value its leader stored",
					n, works.Load())
			}
		})
	}
}

func TestSimErrorsNotCached(t *testing.T) {
	e := New(Config{Workers: 2})
	boom := errors.New("boom")
	var runs int
	run := func() (*machine.Machine, Artifact, error) {
		runs++
		if runs == 1 {
			return nil, Artifact{}, boom
		}
		return runTiny(1)
	}
	if _, err := e.SimCtx(context.Background(), testSimKey(1), run); !errors.Is(err, boom) {
		t.Fatalf("first Sim err = %v, want boom", err)
	}
	// The failure must not be memoized: the next submission retries.
	if _, err := e.SimCtx(context.Background(), testSimKey(1), run); err != nil {
		t.Fatalf("second Sim err = %v, want success", err)
	}
	if runs != 2 {
		t.Errorf("runs = %d, want 2", runs)
	}
	if s := e.Summary(); s.SimMisses != 2 {
		t.Errorf("misses = %d, want 2 (error attempt counted)", s.SimMisses)
	}
}

func TestDiskResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Config{CacheDir: dir})
	a1, err := e1.SimCtx(context.Background(), testSimKey(1), tinyRun(1))
	if err != nil {
		t.Fatal(err)
	}

	// A second engine (fresh process, same cache dir) serves the key
	// from disk without simulating.
	e2 := New(Config{CacheDir: dir})
	a2, err := e2.SimCtx(context.Background(), testSimKey(1), func() (*machine.Machine, Artifact, error) {
		t.Error("run must not be called on a disk hit")
		return nil, Artifact{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Res != a1.Res {
		t.Errorf("disk result = %+v, want %+v", a2.Res, a1.Res)
	}
	if s := e2.Summary(); s.SimDiskHits != 1 || s.SimMisses != 0 {
		t.Errorf("disk-hits/misses = %d/%d, want 1/0", s.SimDiskHits, s.SimMisses)
	}

	// An analysis of the key still simulates: the disk holds the run's
	// Result, not the machine the analysis reads. The analysis job
	// re-stores the same Result under the sim key.
	var runs atomic.Int64
	if _, err := e2.AnalysisCtx(context.Background(), testAnaKey(1, true), func() (*machine.Machine, Artifact, error) {
		runs.Add(1)
		return runTiny(1)
	}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("analysis after disk hit ran %d times, want 1", runs.Load())
	}
	a3, err := e2.SimCtx(context.Background(), testSimKey(1), func() (*machine.Machine, Artifact, error) {
		t.Error("run must not be called: the analysis job cached the result")
		return nil, Artifact{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a3.Res != a1.Res {
		t.Errorf("re-run result differs: %+v vs %+v", a3.Res, a1.Res)
	}
	if s := e2.Summary(); s.SimMisses != 1 || s.SimHits != 1 {
		t.Errorf("misses/hits = %d/%d, want 1/1", s.SimMisses, s.SimHits)
	}
}

// TestDiskTraceRoundTrip: traces are never written to the cache dir, so
// a second engine on the same dir generates the trace exactly once and
// gets the first engine's instructions and dependences.
func TestDiskTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var gens atomic.Int64
	gen := func() (*trace.Trace, error) {
		gens.Add(1)
		return workload.Generate("gzip", testInsts, 1)
	}
	tr1, err := New(Config{CacheDir: dir}).Trace(testTraceKey(1), gen)
	if err != nil {
		t.Fatal(err)
	}

	gens.Store(0)
	e2 := New(Config{CacheDir: dir})
	for i := 0; i < 2; i++ {
		tr2, err := e2.Trace(testTraceKey(1), gen)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr2.Insts, tr1.Insts) || !reflect.DeepEqual(tr2.Deps, tr1.Deps) {
			t.Fatal("second engine's trace differs from the first's")
		}
	}
	if gens.Load() != 1 {
		t.Errorf("second engine ran the generator %d times, want 1", gens.Load())
	}
	if s := e2.Summary(); s.TraceHits != 1 || s.TraceMisses != 1 {
		t.Errorf("trace hits/misses = %d/%d, want 1/1", s.TraceHits, s.TraceMisses)
	}
}

// TestCorruptTraceEntryRecomputed: older binaries stored each trace as
// trace-<hash>.ctr and swept .tmp-* files. The engine reads neither, so
// whatever such a file holds, the trace is generated, nothing is
// quarantined and the file is left as it was.
func TestCorruptTraceEntryRecomputed(t *testing.T) {
	canon := testTraceKey(1).String()
	store := func(meta string) []byte {
		tr, err := workload.Generate("gzip", testInsts, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteStore(&buf, tr, trace.WriterOptions{Meta: []byte(meta)}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, data := range map[string][]byte{
		"garbage":     []byte("not a trace store at all"),
		"foreign-key": store("some other key"),
		"bit-flip": func() []byte {
			data := store(canon)
			data[len(data)/2] ^= 0x40
			return data
		}(),
		"intact": store(canon),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sum := sha256.Sum256([]byte(canon))
			old := map[string][]byte{
				"trace-" + hex.EncodeToString(sum[:16]) + ".ctr": data,
				".tmp-1234": []byte("orphaned partial write"),
			}
			for base, b := range old {
				if err := os.WriteFile(filepath.Join(dir, base), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			e := New(Config{CacheDir: dir})
			var gens atomic.Int64
			tr, err := e.Trace(testTraceKey(1), func() (*trace.Trace, error) {
				gens.Add(1)
				return workload.Generate("gzip", testInsts, 1)
			})
			if err != nil {
				t.Fatal(err)
			}
			if gens.Load() != 1 || tr.Len() == 0 {
				t.Fatalf("generator ran %d times for %d insts, want once", gens.Load(), tr.Len())
			}
			if s := e.Summary(); s.Quarantines != 0 {
				t.Errorf("Quarantines = %d, want 0", s.Quarantines)
			}
			for base, b := range old {
				got, err := os.ReadFile(filepath.Join(dir, base))
				if err != nil || !bytes.Equal(got, b) {
					t.Errorf("%s changed or went (err %v)", base, err)
				}
			}
		})
	}
}

func TestBadCacheDirNonFatal(t *testing.T) {
	// A file where the directory should be: MkdirAll fails, the disk
	// layer is disabled, and the engine still works.
	parent := t.TempDir()
	dir := parent + "/occupied"
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Config{CacheDir: dir})
	if e.Summary().DiskErr == nil {
		t.Error("expected DiskErr for unusable cache dir")
	}
	if _, err := e.SimCtx(context.Background(), testSimKey(1), tinyRun(1)); err != nil {
		t.Fatalf("engine without disk layer failed: %v", err)
	}
}

// TestDroppedUnderPressure pins the memory-cache behavior: over budget,
// entries are dropped outright, values callers already hold are
// unaffected, and the next request for a dropped key recomputes it.
func TestDroppedUnderPressure(t *testing.T) {
	e := New(Config{MaxCacheBytes: baseCost + 1}) // room for one small value
	var runs atomic.Int64
	run := func() (*machine.Machine, Artifact, error) { runs.Add(1); return runTiny(1) }
	h1, err := e.HarvestCtx(nil, testSimKey(1), run)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Summary()
	if s.Evictions == 0 {
		t.Error("expected evictions under a tiny budget")
	}
	if s.CacheBytes > baseCost+1 {
		t.Errorf("cache resident %d bytes over budget", s.CacheBytes)
	}
	if n := len(h1.In.Release); n != h1.In.Trace.Len() || n == 0 {
		t.Fatalf("held harvest has %d releases for %d instructions", n, h1.In.Trace.Len())
	}

	// The dropped harvest recomputes on its next request, identically...
	h2, err := e.HarvestCtx(nil, testSimKey(1), run)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Errorf("dropped harvest ran %d times, want 2", runs.Load())
	}
	if !reflect.DeepEqual(h1.In, h2.In) {
		t.Error("recomputed harvest differs from the dropped one")
	}
	// ...and so does the sim entry the harvest's own insert pushed out;
	// once resident, it serves without running.
	for i := 0; i < 2; i++ {
		if _, err := e.SimCtx(context.Background(), testSimKey(1), run); err != nil {
			t.Fatal(err)
		}
	}
	if runs.Load() != 3 {
		t.Errorf("sim after dropped entries ran %d times in all, want 3", runs.Load())
	}
}

func TestMemCacheEviction(t *testing.T) {
	c := newMemCache(2 * baseCost)
	c.put(&entry{key: "a", val: Artifact{}, cost: baseCost})
	c.put(&entry{key: "b", val: Artifact{}, cost: baseCost})
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	c.get("a") // refresh a: b becomes LRU
	c.put(&entry{key: "c", val: Artifact{}, cost: baseCost})
	if c.get("b") != nil {
		t.Error("LRU entry b survived over-budget insert")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Error("recently used entries evicted")
	}
	if c.bytes > c.max {
		t.Errorf("resident %d over budget %d", c.bytes, c.max)
	}
}

func TestMapDeterministicOrder(t *testing.T) {
	e := New(Config{Workers: 8})
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := MapCtx(context.Background(), e, items, func(i, item int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // scramble completion order
		}
		return item * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	const bound = 3
	e := New(Config{Workers: bound})
	var cur, high atomic.Int64
	_, err := MapCtx(context.Background(), e, make([]int, 50), func(i, _ int) (int, error) {
		n := cur.Add(1)
		for {
			h := high.Load()
			if n <= h || high.CompareAndSwap(h, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := high.Load(); h > bound {
		t.Errorf("high-water concurrency %d exceeds pool bound %d", h, bound)
	}
}

func TestMapErrorPropagation(t *testing.T) {
	e := New(Config{Workers: 4})
	_, err := MapCtx(context.Background(), e, make([]int, 20), func(i, _ int) (int, error) {
		if i == 7 || i == 13 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 7 failed") {
		t.Fatalf("err = %v, want deterministic lowest-index error (job 7)", err)
	}
}

// TestMapPanicRecovered is the regression test for the old parBench
// design, where a panicking job left the dispatch channel send blocked
// forever. With counter-based dispatch plus recovery, a panic surfaces
// as an error and sibling jobs complete.
func TestMapPanicRecovered(t *testing.T) {
	e := New(Config{Workers: 2})
	done := make(chan struct{})
	var completed atomic.Int64
	go func() {
		defer close(done)
		_, err := MapCtx(context.Background(), e, make([]int, 30), func(i, _ int) (int, error) {
			if i == 3 {
				panic("kaboom")
			}
			completed.Add(1)
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("err = %v, want recovered panic", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Map deadlocked after a job panic")
	}
	if completed.Load() != 29 {
		t.Errorf("completed %d sibling jobs, want 29", completed.Load())
	}
}

func TestMapEmpty(t *testing.T) {
	e := New(Config{Workers: 4})
	out, err := MapCtx(context.Background(), e, []int(nil), func(i, item int) (int, error) { return item, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(empty) = %v, %v", out, err)
	}
}

func TestRenderSummary(t *testing.T) {
	e := New(Config{Workers: 2})
	if _, err := e.SimCtx(context.Background(), testSimKey(1), tinyRun(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SimCtx(context.Background(), testSimKey(1), tinyRun(1)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	e.RenderSummary(&sb)
	out := sb.String()
	for _, want := range []string{"Engine summary (2 workers)", "sim jobs run: 1", "cache: 1 entries", "resident, 0 evictions\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestKeyCanonicalForms(t *testing.T) {
	tk := testTraceKey(7)
	if want := "v1|trace|bench=gzip|insts=300|seed=7"; tk.String() != want {
		t.Errorf("TraceKey = %q, want %q", tk.String(), want)
	}
	sk := testSimKey(7)
	sk.TrackExact = true
	want := "v1|sim|bench=gzip|insts=300|seed=7|fwd=2|epoch=1024|clusters=1|stack=depbased|exact=true"
	if sk.String() != want {
		t.Errorf("SimKey = %q, want %q", sk.String(), want)
	}
	// The ablation and replication dimensions appear only when set, so
	// every key that predates them keeps its canonical form.
	sk.Variant = "thr=0.15"
	if got := sk.String(); got != want+"|variant=thr=0.15" {
		t.Errorf("SimKey with variant = %q", got)
	}
	sched := SchedKey{Harvest: testSimKey(7), Config: listsched.Config{Clusters: 8, Width: 1, Int: 1, FP: 1, Mem: 1, Fwd: 2}, Pri: "oracle"}
	plain := "v1|sim|bench=gzip|insts=300|seed=7|fwd=2|epoch=1024|clusters=1|stack=depbased|exact=false" +
		"|sched=v1|sc=8|sw=1|si=1|sf=1|sm=1|sfwd=2|pri=oracle"
	if got := sched.String(); got != plain {
		t.Errorf("SchedKey = %q, want %q", got, plain)
	}
	sched.Replicate = true
	if got := sched.String(); got != plain+"|repl=true" {
		t.Errorf("replicated SchedKey = %q", got)
	}
	// A 1-cluster harvest is keyed without the forwarding latency its
	// run cannot read; a clustered one keeps it.
	mono := "v1|sim|bench=gzip|insts=300|seed=7|fwd=0|epoch=1024|clusters=1|stack=depbased|exact=false|harvest"
	for _, fwd := range []int{1, 2, 4} {
		k := testSimKey(7)
		k.Fwd = fwd
		if got := newHarvestKey(k).String(); got != mono {
			t.Errorf("harvestKey at fwd %d = %q, want %q", fwd, got, mono)
		}
	}
	clustered := testSimKey(7)
	clustered.Clusters = 4
	if got, want := newHarvestKey(clustered).String(), clustered.String()+"|harvest"; got != want {
		t.Errorf("clustered harvestKey = %q, want %q", got, want)
	}
}

// TestDiskExactRoundTrip: a TrackExact key's disk entry persists the
// exact tracker, so a fresh engine on the same dir serves the key
// without simulating, with identical per-PC counts.
func TestDiskExactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := testSimKey(1)
	key.TrackExact = true
	exact := predictor.NewExact()
	for i := 0; i < 90; i++ {
		exact.Train(uint64(i%11)*4, i%4 == 0)
	}
	withExact := func() (*machine.Machine, Artifact, error) {
		return nil, Artifact{Res: machine.Result{ConfigName: "1x8w", Insts: 90, Cycles: 120}, Exact: exact}, nil
	}
	e1 := New(Config{CacheDir: dir})
	if _, err := e1.SimCtx(context.Background(), key, withExact); err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{CacheDir: dir})
	a, err := e2.SimCtx(context.Background(), key, func() (*machine.Machine, Artifact, error) {
		t.Error("run must not be called: the disk entry carries the exact tracker")
		return nil, Artifact{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.Exact.Counts(), exact.Counts(); !reflect.DeepEqual(got, want) {
		t.Errorf("disk exact counts = %+v, want %+v", got, want)
	}
	if s := e2.Summary(); s.SimDiskHits != 1 || s.SimMisses != 0 {
		t.Errorf("disk-hits/misses = %d/%d, want 1/0", s.SimDiskHits, s.SimMisses)
	}

	// An exact key's entry written without counts (by an older binary)
	// is incomplete, so it is a miss: the request re-simulates.
	old := testSimKey(2)
	old.TrackExact = true
	e2.disk.storeResult(old, machine.Result{Insts: 90}, nil)
	var runs atomic.Int64
	if _, err := e2.SimCtx(context.Background(), old, func() (*machine.Machine, Artifact, error) {
		runs.Add(1)
		return withExact()
	}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("count-less exact entry served without running (%d runs, want 1)", runs.Load())
	}
}

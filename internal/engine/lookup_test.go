package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/machine"
)

// within runs fn and fails the test if it has not returned after d: a
// key whose flight never lands hangs its next submission.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s hung: a panicking leader left its key in flight", what)
	}
}

// TestPanickingLeaderReleasesKey: a job whose run panics inside MapCtx
// is recovered as that item's error, and every flight it led (the
// key's own and, for an analysis or a harvest, its run's sim flight)
// must land, so the next submission of each key computes instead of
// waiting forever.
func TestPanickingLeaderReleasesKey(t *testing.T) {
	panicking := func() (*machine.Machine, Artifact, error) { panic("run exploded") }
	for _, tc := range []struct {
		name   string
		submit func(e *Engine, run Run) error
	}{
		{"sim", func(e *Engine, run Run) error {
			_, err := e.SimCtx(context.Background(), testSimKey(1), run)
			return err
		}},
		{"analysis", func(e *Engine, run Run) error {
			_, err := e.AnalysisCtx(context.Background(), testAnaKey(1, false), run)
			return err
		}},
		{"harvest", func(e *Engine, run Run) error {
			_, err := e.HarvestCtx(context.Background(), testSimKey(1), run)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Workers: 1})
			_, err := MapCtx(context.Background(), e, []int{0}, func(int, int) (int, error) {
				return 0, tc.submit(e, panicking)
			})
			if err == nil {
				t.Fatal("a panicking run reported no error")
			}
			within(t, 3*time.Second, tc.name+" resubmission", func() {
				if err := tc.submit(e, tinyRun(1)); err != nil {
					t.Error(err)
				}
			})
			within(t, 3*time.Second, "sim of the same run", func() {
				if _, err := e.SimCtx(context.Background(), testSimKey(1), tinyRun(1)); err != nil {
					t.Error(err)
				}
			})
			e.mu.Lock()
			left := len(e.inflight)
			e.mu.Unlock()
			if left != 0 {
				t.Errorf("%d flights still open", left)
			}
		})
	}
}

// overlapCase is one batch submission under test: it submits keys,
// counting compute calls and the misses each was handed.
type overlapCase struct {
	name   string
	submit func(e *Engine, keys []int, compute func(miss []int)) error
	misses func(Summary) int64
}

func overlapCases() []overlapCase {
	simKeys := func(idx []int) []SimKey {
		keys := make([]SimKey, len(idx))
		for j, i := range idx {
			keys[j] = testSimKey(uint64(i))
		}
		return keys
	}
	schedKeys := func(idx []int) []SchedKey {
		keys := make([]SchedKey, len(idx))
		for j, i := range idx {
			keys[j] = testSchedKey("oracle", i)
		}
		return keys
	}
	return []overlapCase{
		{"variants", func(e *Engine, idx []int, compute func([]int)) error {
			_, err := e.SimVariantsCtx(context.Background(), simKeys(idx), func(miss []int) ([]Artifact, error) {
				compute(miss)
				return make([]Artifact, len(miss)), nil
			})
			return err
		}, func(s Summary) int64 { return s.SimMisses }},
		{"schedules", func(e *Engine, idx []int, compute func([]int)) error {
			_, err := e.SchedulesCtx(context.Background(), schedKeys(idx), func(miss []int) ([]SchedSummary, error) {
				compute(miss)
				return make([]SchedSummary, len(miss)), nil
			})
			return err
		}, func(s Summary) int64 { return s.SchedMisses }},
	}
}

// TestOverlappingBatchesComputeOnce starts a second batch of the same two
// keys while the first is computing them. The second must share the
// first's computation: one compute call and two misses in all.
func TestOverlappingBatchesComputeOnce(t *testing.T) {
	for _, tc := range overlapCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Workers: 2})
			var computes, lookups atomic.Int64
			started, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			releaseFirst := func() { once.Do(func() { close(release) }) }
			compute := func([]int) {
				if computes.Add(1) == 1 {
					close(started)
					<-release
					return
				}
				releaseFirst() // a duplicate computation: let the first finish
			}
			// The second batch's lookup begins just after this hook; give
			// it time to find the keys in flight before the first lands.
			e.beforeLookup = func(string) {
				if lookups.Add(1) == 2 {
					time.AfterFunc(50*time.Millisecond, releaseFirst)
				}
			}
			keys := []int{2, 4}
			first := make(chan error, 1)
			go func() { first <- tc.submit(e, keys, compute) }()
			<-started
			if err := tc.submit(e, keys, compute); err != nil {
				t.Fatal(err)
			}
			if err := <-first; err != nil {
				t.Fatal(err)
			}
			if n, m := computes.Load(), tc.misses(e.Summary()); n != 1 || m != 2 {
				t.Fatalf("computed %d times with %d misses, want 1 and 2", n, m)
			}
		})
	}
}

// TestDuplicateBatchKeyComputedOnce: a key listed twice in one batch is
// one miss, handed to compute once, and both positions get its value.
func TestDuplicateBatchKeyComputedOnce(t *testing.T) {
	for _, tc := range overlapCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Workers: 1})
			var handed []int
			if err := tc.submit(e, []int{2, 4, 2}, func(miss []int) { handed = append(handed, miss...) }); err != nil {
				t.Fatal(err)
			}
			if len(handed) != 2 || handed[0] != 0 || handed[1] != 1 {
				t.Errorf("compute was handed misses %v, want [0 1]", handed)
			}
			if m := tc.misses(e.Summary()); m != 2 {
				t.Errorf("%d misses, want 2", m)
			}
		})
	}
}

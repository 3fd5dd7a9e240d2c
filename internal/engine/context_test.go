package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/machine"
)

// The per-submission context suite: every engine submission carries its
// own context, so a server running concurrent jobs on one engine can
// cancel tenant A's job without touching tenant B's pending work.

// TestPerJobContextIsolation cancels one of two concurrent MapCtx calls
// sharing an engine; the other must complete every item.
func TestPerJobContextIsolation(t *testing.T) {
	e := New(Config{Workers: 4})
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB := context.Background()

	items := make([]int, 32)
	started := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	var errA, errB error
	var ranB atomic.Int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errA = MapCtx(ctxA, e, items, func(i int, _ int) (int, error) {
			once.Do(func() { close(started) })
			// Job A is slow; its context is cancelled after the first item
			// starts, so pending items must fail fast.
			time.Sleep(5 * time.Millisecond)
			return i, nil
		})
	}()
	go func() {
		defer wg.Done()
		<-started
		cancelA()
		_, errB = MapCtx(ctxB, e, items, func(i int, _ int) (int, error) {
			ranB.Add(1)
			return i, nil
		})
	}()
	wg.Wait()

	if errA == nil {
		t.Error("cancelled job A completed without error")
	} else if !errors.Is(errA, context.Canceled) || !errors.Is(errA, ErrFatal) {
		t.Errorf("job A error = %v, want Fatal-classified context.Canceled", errA)
	}
	if errB != nil {
		t.Errorf("job B failed although only job A was cancelled: %v", errB)
	}
	if got := ranB.Load(); got != int64(len(items)) {
		t.Errorf("job B ran %d/%d items", got, len(items))
	}
}

// TestSimCtxCancelledFailsFast verifies a cancelled context on a
// one-key simulation submission (SimVariantsCtx) prevents the job body
// from running at all, while a live submission of
// the same key on the same engine still computes.
func TestSimCtxCancelledFailsFast(t *testing.T) {
	e := New(Config{Workers: 2})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var runs atomic.Int64
	run := func(derive func(*machine.Machine) error) (Artifact, error) {
		runs.Add(1)
		return runTiny(1, derive)
	}
	if _, err := simOne(e, cancelled, testSimKey(1), run); err == nil {
		t.Fatal("simulation with cancelled context returned no error")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("simulation error = %v, want context.Canceled", err)
	}
	if runs.Load() != 0 {
		t.Fatalf("cancelled submission ran the job body %d times", runs.Load())
	}
	// The same key under a live context is unaffected by the earlier
	// cancellation (errors are not memoized).
	if _, err := simOne(e, context.Background(), testSimKey(1), run); err != nil {
		t.Fatalf("live submission after cancelled one: %v", err)
	}
	if runs.Load() != 1 {
		t.Fatalf("live submission ran %d times, want 1", runs.Load())
	}
}

// TestForeignCancellationRetry pins the singleflight corner: a follower
// with a live context that shared a flight whose leader was cancelled
// (by the leader's own context) must retry and obtain the artifact, not
// inherit the foreign cancellation.
func TestForeignCancellationRetry(t *testing.T) {
	e := New(Config{Workers: 4})
	key := testSimKey(1)

	leaderStarted := make(chan struct{})
	releaseLeader := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = simOne(e, leaderCtx, key, func(derive func(*machine.Machine) error) (Artifact, error) {
			close(leaderStarted)
			<-releaseLeader
			// The leader's driver observed its own cancellation mid-job
			// (as a nested MapCtx/SimVariantsCtx inside a real driver would) and
			// surfaces it.
			cancelLeader()
			return Artifact{}, Fatal(fmt.Errorf("engine: job cancelled: %w", leaderCtx.Err()))
		})
	}()

	<-leaderStarted
	// The follower joins the in-flight call, then the leader fails with
	// its foreign cancellation. The follower must transparently re-run.
	var followerRan atomic.Int64
	var followerErr error
	var followerArt Artifact
	wg.Add(1)
	go func() {
		defer wg.Done()
		followerArt, followerErr = simOne(e, context.Background(), key, func(derive func(*machine.Machine) error) (Artifact, error) {
			followerRan.Add(1)
			return runTiny(1, derive)
		})
	}()
	// Give the follower time to join the leader's flight before releasing
	// the leader; joining later is also correct (it would just become the
	// leader of a fresh flight).
	time.Sleep(20 * time.Millisecond)
	close(releaseLeader)
	wg.Wait()

	if leaderErr == nil || !errors.Is(leaderErr, context.Canceled) {
		t.Errorf("leader error = %v, want context.Canceled", leaderErr)
	}
	if followerErr != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", followerErr)
	}
	if followerArt.Res.Insts == 0 {
		t.Fatal("follower got no artifact")
	}
}

package server

import (
	"container/heap"
	"errors"
	"sync"
)

// ErrQueueFull is returned by push when admission control rejects a job;
// the HTTP layer translates it to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("server: queue full")

// ErrQueueClosed is returned by push after Close.
var ErrQueueClosed = errors.New("server: queue closed")

// wfq is a weighted fair queue over tenants: each job is stamped with a
// virtual finish time
//
//	vft = max(queueVirtualTime, tenantLastVft) + cost/weight
//
// and runners always pop the smallest vft. A tenant submitting a burst
// only pushes its *own* later jobs out in time (its vft advances by
// cost/weight per job), so a heavy tenant cannot starve a light one, and
// a tenant with weight 2 drains twice the work per unit of virtual time
// as a tenant with weight 1. Ties break by submission order.
//
// Depth is bounded: push fails with ErrQueueFull once maxDepth jobs wait,
// which is the server's admission control (the caller answers 429).
type wfq struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    jobHeap
	vtime    float64            // virtual time: vft of the last popped job
	lastVft  map[string]float64 // per-tenant last assigned vft
	nextSeq  uint64
	max      int
	closed   bool
	draining bool
}

// newWFQ builds a queue bounded to max pending jobs.
func newWFQ(max int) *wfq {
	q := &wfq{lastVft: map[string]float64{}, max: max}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits j for tenant weight w, stamping its virtual finish time.
func (q *wfq) push(j *Job, weight float64) error {
	if weight <= 0 {
		weight = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.draining {
		return ErrQueueClosed
	}
	if q.max > 0 && q.items.Len() >= q.max {
		return ErrQueueFull
	}
	start := q.vtime
	if last := q.lastVft[j.Spec.Tenant]; last > start {
		start = last
	}
	j.vft = start + j.cost/weight
	j.seq = q.nextSeq
	q.nextSeq++
	q.lastVft[j.Spec.Tenant] = j.vft
	heap.Push(&q.items, j)
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available (skipping jobs cancelled while
// queued) or the queue closes or drains; ok is false on close/drain.
// Draining deliberately leaves queued items in place — they stay
// accepted in the job log and re-enqueue on the next start.
func (q *wfq) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.draining {
			return nil, false
		}
		for q.items.Len() > 0 {
			j := heap.Pop(&q.items).(*Job)
			if j.vft > q.vtime {
				q.vtime = j.vft
			}
			if j.currentState() != StateQueued {
				continue // cancelled while queued
			}
			return j, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// depth returns the number of queued jobs (including not-yet-skipped
// cancelled ones — an upper bound, which is the right direction for
// admission control).
func (q *wfq) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

// drain flips the queue to draining: push refuses with ErrQueueClosed,
// every blocked pop wakes and returns false, and queued items are left
// untouched (persisted work for the next start). Returns how many jobs
// remain queued. Idempotent.
func (q *wfq) drain() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.draining {
		q.draining = true
		q.cond.Broadcast()
	}
	return q.items.Len()
}

// close wakes every blocked pop; queued jobs are drained by the caller.
func (q *wfq) close() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	var left []*Job
	for q.items.Len() > 0 {
		left = append(left, heap.Pop(&q.items).(*Job))
	}
	q.cond.Broadcast()
	return left
}

// jobHeap is a min-heap by (vft, seq).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].vft != h[k].vft {
		return h[i].vft < h[k].vft
	}
	return h[i].seq < h[k].seq
}
func (h jobHeap) Swap(i, k int) { h[i], h[k] = h[k], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

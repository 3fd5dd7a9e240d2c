package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"clustersim/internal/metrics"
)

// kind describes one kind of cached value (traces, simulation artifacts,
// analyses, harvests, schedules) to lookup, the one path every engine
// submission takes. Canonical keys of different kinds never coincide.
type kind[K fmt.Stringer, V any] struct {
	e *Engine
	// hit counts memory hits and values shared from another submission's
	// flight, diskHit values loaded from disk, and miss computed keys;
	// timer times each compute call. miss and timer may be nil.
	hit, diskHit, miss *metrics.Counter
	timer              *metrics.Timer
	// load serves a led key from disk while the disk layer is available;
	// nil for memory-only kinds.
	load func(K) (V, bool)
	// store, when set, persists each computed value before it is cached
	// and may refuse it.
	store func(K, V) error
	// cost is a value's memory-cache charge in bytes.
	cost func(V) int64
}

// flight is one key's computation in progress. Its leader sets val and
// err before closing done; err starts as errAbandoned, so a leader that
// panics hands its followers an error instead of a hang.
type flight struct {
	canon string
	done  chan struct{}
	val   any
	err   error
}

var errAbandoned = Transient(errors.New("engine: the submission computing this key stopped before finishing it"))

// lead registers a new flight for canon; e.mu must be held.
func (e *Engine) lead(canon string) *flight {
	f := &flight{canon: canon, done: make(chan struct{}), err: errAbandoned}
	e.inflight[canon] = f
	return f
}

// lookup returns the values of keys, positionally aligned. In one hold
// of e.mu it serves memory hits, follows keys already in flight and
// leads the rest. It serves the led keys from disk, passes the remaining
// misses (indices into keys, in key order) to one compute call, which
// must return their values in that order, and lands every led flight.
// Only then does it wait on the keys it follows, so overlapping batches
// never wait on each other in a cycle. A key listed twice is computed
// once. Errors are not memoized: the next submission retries the key.
func (k *kind[K, V]) lookup(ctx context.Context, keys []K, compute func(miss []int) ([]V, error)) ([]V, error) {
	out := make([]V, len(keys))
	if err := k.fill(ctx, keys, out, compute); err != nil {
		return nil, err
	}
	return out, nil
}

// one is lookup of a single key.
func (k *kind[K, V]) one(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	var out [1]V
	err := k.fill(ctx, []K{key}, out[:], func([]int) ([]V, error) {
		v, err := compute()
		return []V{v}, err
	})
	return out[0], err
}

// slot is one key a lookup still lacks: its index and canonical form.
type slot struct {
	i     int
	canon string
}

// fill is lookup into out. A cancellation shared from a flight whose
// leader was cancelled by its own context is not this caller's: while
// ctx is live, fill retries the keys it still lacks, joining a live
// flight or leading a new one.
func (k *kind[K, V]) fill(ctx context.Context, keys []K, out []V, compute func([]int) ([]V, error)) error {
	var one [1]slot // a single key's lookup allocates no slots
	todo := one[:0]
	if len(keys) > len(one) {
		todo = make([]slot, 0, len(keys))
	}
	for i, key := range keys {
		todo = append(todo, slot{i, key.String()})
	}
	for attempt := 0; len(todo) > 0; attempt++ {
		var err error
		todo, err = k.attempt(ctx, keys, todo, out, compute)
		if err != nil && !(isCancellation(err) && checkCtx(ctx) == nil && attempt < maxForeignCancelRetries) {
			return err
		}
	}
	return nil
}

// attempt is one pass of fill over the keys todo. It returns the keys
// still unresolved, in key order, and the error that left them so.
func (k *kind[K, V]) attempt(ctx context.Context, keys []K, todo []slot, out []V, compute func([]int) ([]V, error)) ([]slot, error) {
	e := k.e
	if e.beforeLookup != nil {
		e.beforeLookup(todo[0].canon)
	}
	var led []int
	var followed []slot
	var leads, follows []*flight
	e.mu.Lock()
	for _, s := range todo {
		if ent := e.mem.get(s.canon); ent != nil {
			out[s.i] = ent.val.(V)
			k.hit.Inc()
		} else if f := e.inflight[s.canon]; f != nil {
			followed, follows = append(followed, s), append(follows, f)
		} else {
			led, leads = append(led, s.i), append(leads, e.lead(s.canon))
		}
	}
	e.mu.Unlock()
	var pending []slot
	var err error
	if len(led) > 0 {
		err = k.resolve(ctx, keys, led, leads, out, compute)
		for j, f := range leads {
			if f.err != nil {
				pending = append(pending, slot{led[j], f.canon})
			}
		}
	}
	for j, f := range follows {
		<-f.done
		if f.err != nil {
			pending = append(pending, followed[j])
			err = cmp.Or(err, f.err)
			continue
		}
		out[followed[j].i] = f.val.(V)
		k.hit.Inc()
	}
	slices.SortFunc(pending, func(a, b slot) int { return a.i - b.i })
	return pending, err
}

// resolve computes the keys this submission leads, flights fs: from
// disk where it can, the rest in one compute call. The flights land from
// a defer, so an error or a panic releases them too.
func (k *kind[K, V]) resolve(ctx context.Context, keys []K, led []int, fs []*flight, out []V, compute func([]int) ([]V, error)) (err error) {
	defer func() { k.land(fs, err) }()
	var miss []int
	var missFs []*flight
	for j, i := range led {
		if k.load != nil && k.e.disk.available() {
			if v, ok := k.load(keys[i]); ok {
				k.diskHit.Inc()
				out[i], fs[j].val, fs[j].err = v, v, nil
				continue
			}
		}
		miss, missFs = append(miss, i), append(missFs, fs[j])
	}
	if len(miss) == 0 {
		return nil
	}
	if err := checkCtx(ctx); err != nil {
		return err
	}
	if k.miss != nil {
		k.miss.Add(int64(len(miss)))
	}
	start := time.Now()
	vals, err := compute(miss)
	if err != nil {
		return err
	}
	if len(vals) != len(miss) {
		return fmt.Errorf("engine: compute returned %d values for %d misses", len(vals), len(miss))
	}
	if k.timer != nil {
		k.timer.Observe(time.Since(start))
	}
	for j, i := range miss {
		if k.store != nil {
			if err := k.store(keys[i], vals[j]); err != nil {
				return err
			}
		}
		out[i], missFs[j].val, missFs[j].err = vals[j], vals[j], nil
	}
	return nil
}

// land caches each resolved flight's value in memory and ends every
// flight in fs; an unresolved one hands its followers err, or
// errAbandoned when err is nil because the leader panicked. Caching a
// value and ending its flight share one hold of e.mu, so a lookup finds
// the key either in memory or in flight, never in neither.
func (k *kind[K, V]) land(fs []*flight, err error) {
	e := k.e
	e.mu.Lock()
	for _, f := range fs {
		if f.err == nil {
			e.mem.put(&entry{key: f.canon, val: f.val, cost: k.cost(f.val.(V))})
		} else if err != nil {
			f.err = err
		}
		delete(e.inflight, f.canon)
	}
	e.mu.Unlock()
	for _, f := range fs {
		close(f.done)
	}
}

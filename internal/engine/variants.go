package engine

import (
	"context"
	"fmt"
	"time"
)

// SimVariantsCtx returns the simulation artifacts for keys, positionally
// aligned. Hits are served from memory or from the on-disk result
// entries under exactly the same rules as SimCtx; compute receives the
// indices of the remaining misses (in key order) and must return their
// artifacts in that order — typically one fused machine.SimulateVariants
// call over the batch's shared trace, which is why the misses are
// batched instead of resolved one key at a time: the fused run decodes
// the trace, builds the producer index, and trains the shared front-end
// exactly once for every variant in the sweep. compute owns the machines
// it runs and recycles them before returning.
//
// Each returned artifact is cached under its own SimKey,
// so later solo SimCtx submissions of any variant hit without recomputing,
// and vice versa — a fused batch warms the same cache a solo run would.
//
// Unlike SimCtx there is no singleflight: drivers submit one fused batch
// per (bench, seed) sweep, so concurrent duplicate variants can only
// arise across drivers racing the same figure — the second computation
// produces a byte-identical artifact (the purity contract) and simply
// overwrites the first's entry. Only overlapping computations
// duplicate: the misses are rechecked under the lock just before
// compute runs, so a batch stored meanwhile is served from memory.
//
// Once ctx is cancelled the batch's misses fail fast without simulating,
// while other submissions of the same engine are untouched; a nil ctx is
// never cancelled.
func (e *Engine) SimVariantsCtx(ctx context.Context, keys []SimKey, compute func(miss []int) ([]Artifact, error)) ([]Artifact, error) {
	out := make([]Artifact, len(keys))
	var miss []int
	for i, key := range keys {
		canon := key.String()
		e.mu.Lock()
		hit := e.memSim(key, canon, &out[i])
		e.mu.Unlock()
		if hit {
			continue
		}
		if a, ok := e.diskSim(key, canon); ok {
			out[i] = a
			continue
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return out, nil
	}
	// Recheck the misses under one lock hold, as SchedulesCtx does.
	if e.beforeLookup != nil {
		e.beforeLookup(keys[miss[0]].String())
	}
	e.mu.Lock()
	still := miss[:0]
	for _, i := range miss {
		if !e.memSim(keys[i], keys[i].String(), &out[i]) {
			still = append(still, i)
		}
	}
	e.mu.Unlock()
	if miss = still; len(miss) == 0 {
		return out, nil
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	e.cSimMiss.Add(int64(len(miss)))
	start := time.Now()
	computed, err := compute(miss)
	if err != nil {
		return nil, err
	}
	e.tSim.Observe(time.Since(start))
	if len(computed) != len(miss) {
		return nil, fmt.Errorf("engine: variant compute returned %d artifacts for %d misses",
			len(computed), len(miss))
	}
	for j, i := range miss {
		if err := e.storeSim(keys[i], computed[j]); err != nil {
			return nil, err
		}
		out[i] = computed[j]
	}
	return out, nil
}

// memSim serves one simulation key from the memory cache into out
// through the entry check SimCtx uses, counting the hit; e.mu must be
// held.
func (e *Engine) memSim(key SimKey, canon string, out *Artifact) bool {
	ent := e.mem.get(canon)
	if ent == nil || !ent.art.complete(key) {
		return false
	}
	*out = *ent.art
	e.cSimHit.Inc()
	return true
}

package engine

import (
	"context"
	"fmt"
	"time"
)

// SimVariants returns the simulation artifacts for keys, positionally
// aligned. Hits are served from memory or from the on-disk result
// entries under exactly the same rules as Sim; compute receives the
// indices of the remaining misses (in key order) and must return their
// artifacts in that order — typically one fused machine.SimulateVariants
// call over the batch's shared trace, which is why the misses are
// batched instead of resolved one key at a time: the fused run decodes
// the trace, builds the producer index, and trains the shared front-end
// exactly once for every variant in the sweep.
//
// Each returned artifact is cached and journaled under its own SimKey,
// so later solo Sim submissions of any variant hit without recomputing,
// and vice versa — a fused batch warms the same cache a solo run would.
//
// Unlike Sim there is no singleflight: drivers submit one fused batch
// per (bench, seed) sweep, so concurrent duplicate variants can only
// arise across drivers racing the same figure — the second computation
// produces a byte-identical artifact (the purity contract) and simply
// overwrites the first's entry. This mirrors Schedules.
func (e *Engine) SimVariants(keys []SimKey, need Need, compute func(miss []int) ([]*Artifact, error)) ([]*Artifact, error) {
	return e.SimVariantsCtx(nil, keys, need, compute)
}

// SimVariantsCtx is SimVariants with a per-submission context: once ctx
// is cancelled the batch's misses fail fast without simulating, while
// other submissions of the same engine are untouched. A nil ctx means no
// per-submission cancellation (the engine-wide SetContext still applies).
func (e *Engine) SimVariantsCtx(ctx context.Context, keys []SimKey, need Need, compute func(miss []int) ([]*Artifact, error)) ([]*Artifact, error) {
	out := make([]*Artifact, len(keys))
	var miss []int
	for i, key := range keys {
		if need&NeedExact != 0 && !key.TrackExact {
			return nil, fmt.Errorf("engine: %s requested for key without TrackExact (%s)", need, key)
		}
		canon := key.String()
		e.mu.Lock()
		if ent := e.mem.get(canon); ent != nil && ent.art.satisfies(need) {
			fromJournal := ent.journal
			out[i] = ent.art
			e.mu.Unlock()
			e.cSimHit.Inc()
			if fromJournal {
				e.cResumeHit.Inc()
			}
			continue
		}
		e.mu.Unlock()

		if a := e.diskSim(key, canon, need); a != nil {
			out[i] = a
			continue
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return out, nil
	}
	if err := e.checkCtx(ctx); err != nil {
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
		a := computed[j]
		if a == nil || !a.satisfies(need) {
			return nil, fmt.Errorf("engine: variant compute artifact %d cannot serve %s", j, need)
		}
		e.storeSim(keys[i], keys[i].String(), a)
		out[i] = a
	}
	return out, nil
}

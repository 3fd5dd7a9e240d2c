package engine

import (
	"context"
	"fmt"
	"time"

	"clustersim/internal/listsched"
)

// schedVersion versions the schedule-summary schema. It is folded into
// the schedule cache key (alongside schemaVersion via the harvest key),
// so changing what a SchedSummary contains — or how listsched computes
// schedules — invalidates cached schedules without touching the
// simulation artifacts they derive from.
const schedVersion = 1

// SchedSummary is the cacheable outcome of one idealized list-scheduling
// variant. Drivers consume makespans, cross-edge and replica counts,
// never per-instruction placements, so only the scalars are cached.
type SchedSummary struct {
	Insts       int
	Makespan    int64
	CrossEdges  int64
	DyadicCross int64
	// Replicas counts the producer copies a replicated schedule
	// (SchedKey.Replicate) placed; always zero otherwise.
	Replicas int64 `json:",omitempty"`
}

// SchedKey identifies one idealized schedule: the harvest run whose
// retirement trace feeds the scheduler, the resource configuration
// (including the forwarding latency being swept), and the priority by
// name. The contract that makes caching sound is the same purity rule
// the simulation cache relies on: the named priority must be derived
// deterministically from the harvest artifact (oracle from the Input,
// LoC/binary from the run's exact tracker), so equal keys always
// describe byte-identical schedules.
type SchedKey struct {
	Harvest SimKey
	Config  listsched.Config
	Pri     string
	// Replicate selects the replicating list scheduler
	// (listsched.RunReplicated) instead of the plain one.
	Replicate bool
}

// String returns the canonical form used for dedup and hashing. Like
// SimKey.Variant, Replicate appears only when set, so plain schedule
// keys keep their canonical form.
func (k SchedKey) String() string {
	s := fmt.Sprintf("%s|sched=v%d|sc=%d|sw=%d|si=%d|sf=%d|sm=%d|sfwd=%d|pri=%s",
		k.Harvest.String(), schedVersion, k.Config.Clusters, k.Config.Width,
		k.Config.Int, k.Config.FP, k.Config.Mem, k.Config.Fwd, k.Pri)
	if k.Replicate {
		s += "|repl=true"
	}
	return s
}

// Schedules returns the schedule summaries for keys, positionally
// aligned. Hits are served from memory or disk; compute receives the
// indices of the remaining misses (in key order) and must return their
// summaries in that order — typically one pooled ScheduleVariants call
// over the shared harvest, which is exactly why the misses are batched
// instead of resolved one key at a time.
//
// Unlike Sim and Analysis there is no singleflight: drivers submit one
// fused batch per harvest run, so concurrent duplicate schedules can
// only arise across drivers racing the same figure — they would
// duplicate a cheap replay, not corrupt state, and the second writer
// simply overwrites the first's identical entry. Only overlapping
// computations duplicate: the misses are rechecked under the lock just
// before compute runs, so a batch stored meanwhile is served from memory.
func (e *Engine) Schedules(keys []SchedKey, compute func(miss []int) ([]SchedSummary, error)) ([]SchedSummary, error) {
	return e.SchedulesCtx(nil, keys, compute)
}

// SchedulesCtx is Schedules with a per-submission context: once ctx is
// cancelled the batch's misses fail fast without computing, while other
// submissions of the same engine are untouched. A nil ctx means no
// per-submission cancellation (the engine-wide SetContext still applies).
func (e *Engine) SchedulesCtx(ctx context.Context, keys []SchedKey, compute func(miss []int) ([]SchedSummary, error)) ([]SchedSummary, error) {
	out := make([]SchedSummary, len(keys))
	var miss []int
	for i, k := range keys {
		canon := k.String()
		e.mu.Lock()
		hit := e.memSched(canon, &out[i])
		e.mu.Unlock()
		if hit {
			continue
		}
		if e.diskAvailable() {
			if ss, ok := e.disk.loadSched(canon); ok {
				out[i] = *ss
				e.mu.Lock()
				e.mem.putSched(canon, ss)
				e.mu.Unlock()
				e.cSchedDiskHit.Inc()
				e.journalSched(canon, ss)
				continue
			}
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return out, nil
	}
	// Recheck the misses under one lock hold: with no flight to join, this
	// is what keeps a batch that a concurrent caller finished meanwhile
	// from being computed twice.
	if e.beforeLookup != nil {
		e.beforeLookup(keys[miss[0]].String())
	}
	e.mu.Lock()
	still := miss[:0]
	for _, i := range miss {
		if !e.memSched(keys[i].String(), &out[i]) {
			still = append(still, i)
		}
	}
	e.mu.Unlock()
	if miss = still; len(miss) == 0 {
		return out, nil
	}
	if err := e.checkCtx(ctx); err != nil {
		return nil, err
	}
	e.cSchedMiss.Add(int64(len(miss)))
	start := time.Now()
	computed, err := compute(miss)
	if err != nil {
		return nil, err
	}
	e.tSched.Observe(time.Since(start))
	if len(computed) != len(miss) {
		return nil, fmt.Errorf("engine: schedule compute returned %d summaries for %d misses",
			len(computed), len(miss))
	}
	for j, i := range miss {
		out[i] = computed[j]
		ss := computed[j]
		canon := keys[i].String()
		e.mu.Lock()
		e.mem.putSched(canon, &ss)
		e.mu.Unlock()
		if e.diskAvailable() {
			e.disk.storeSched(canon, &ss)
		}
		e.journalSched(canon, &ss)
	}
	return out, nil
}

// memSched serves one schedule key from the memory cache into out,
// counting the hit; e.mu must be held.
func (e *Engine) memSched(canon string, out *SchedSummary) bool {
	ent := e.mem.get(canon)
	if ent == nil || ent.sched == nil {
		return false
	}
	*out = *ent.sched
	e.cSchedHit.Inc()
	if ent.journal {
		e.cResumeHit.Inc()
	}
	return true
}

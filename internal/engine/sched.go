package engine

import (
	"context"
	"fmt"
	"time"

	"clustersim/internal/listsched"
	"clustersim/internal/machine"
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
	// Replicate selects the replicating list scheduler (the pooled
	// Scheduler.ScheduleReplicated, byte-identical to its oracle
	// listsched.RunReplicated) instead of the plain one.
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

// harvestCanon derives the harvest cache key from the simulation key.
func harvestCanon(key SimKey) string { return key.String() + "|harvest" }

// HarvestCtx returns the schedule harvest of key's run, the input a
// SchedulesCtx compute replays. On a miss the harvest job simulates with
// run, copies the list scheduler's Input out of the live machine, and
// recycles it; the run's artifact is cached under key's sim entry as a
// SimCtx miss would cache it. A harvest hit is counted as a sim hit — it
// serves the run without simulating. Harvests live in memory only and
// are dropped, like every entry, under pressure; the next request
// re-simulates. ctx behaves as in SimCtx.
func (e *Engine) HarvestCtx(ctx context.Context, key SimKey, run Run) (*Harvest, error) {
	canon := harvestCanon(key)
	cached := func(ent *entry) (any, bool) { return ent.harvest, ent.harvest != nil }
	v, err := e.doOnce(ctx, canon, e.cSimHit, cached, func() (any, error) {
		h := &Harvest{}
		a, err := e.simulate(ctx, key, run, func(m *machine.Machine) error {
			h.In = listsched.FromMachineRun(m)
			return nil
		})
		if err != nil {
			return nil, err
		}
		h.Exact = a.Exact
		e.mu.Lock()
		e.mem.putHarvest(canon, h)
		e.mu.Unlock()
		return h, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Harvest), nil
}

// SchedulesCtx returns the schedule summaries for keys, positionally
// aligned. Hits are served from memory or disk; compute receives the
// indices of the remaining misses (in key order) and must return their
// summaries in that order — typically one pooled ScheduleVariants call
// over the shared harvest, which is exactly why the misses are batched
// instead of resolved one key at a time.
//
// Unlike SimCtx and AnalysisCtx there is no singleflight: drivers submit one
// fused batch per harvest run, so concurrent duplicate schedules can
// only arise across drivers racing the same figure — they would
// duplicate a cheap replay, not corrupt state, and the second writer
// simply overwrites the first's identical entry. Only overlapping
// computations duplicate: the misses are rechecked under the lock just
// before compute runs, so a batch stored meanwhile is served from memory.
// Once ctx is cancelled the batch's misses fail fast without computing,
// while other submissions of the same engine are untouched; a nil ctx is
// never cancelled.
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
	if err := checkCtx(ctx); err != nil {
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
	return true
}

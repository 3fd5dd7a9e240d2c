package engine

import (
	"context"
	"fmt"

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

// String returns the canonical form used for dedup and as the disk
// cache's key. Like SimKey.Variant, Replicate appears only when set, so
// plain schedule keys keep their canonical form.
func (k SchedKey) String() string {
	s := fmt.Sprintf("%s|sched=v%d|sc=%d|sw=%d|si=%d|sf=%d|sm=%d|sfwd=%d|pri=%s",
		k.Harvest.String(), schedVersion, k.Config.Clusters, k.Config.Width,
		k.Config.Int, k.Config.FP, k.Config.Mem, k.Config.Fwd, k.Pri)
	if k.Replicate {
		s += "|repl=true"
	}
	return s
}

// harvestKey names the schedule harvest of a SimKey's run by what the
// run reads (newHarvestKey). Harvests are memory-only, so no disk entry
// is ever written under this form.
type harvestKey SimKey

// newHarvestKey is the harvest key of key's run. A 1-cluster machine
// never forwards a value between clusters, so its run, and with it the
// harvest, is the same at every forwarding latency: Fwd is zeroed, and
// every latency's request shares one harvest.
func newHarvestKey(key SimKey) harvestKey {
	if key.Clusters == 1 {
		key.Fwd = 0
	}
	return harvestKey(key)
}

func (k harvestKey) String() string { return SimKey(k).String() + "|harvest" }

// HarvestCtx returns the schedule harvest of key's run, the input a
// SchedulesCtx compute replays. The harvest is keyed by what the run
// reads (newHarvestKey), so a 1-cluster key at any forwarding latency is
// served by the harvest of whichever latency came first. On a miss the
// harvest job simulates with run and copies the list scheduler's Input
// out of the live machine inside the run's batch; the run's artifact is
// cached under key's sim entry as a SimVariantsCtx miss would cache it.
// A harvest hit is counted as a sim hit — it serves the run without
// simulating. Harvests live in memory only, with the issue orders
// memoized on them (Harvest.KeepOrder), and are dropped, like every
// entry, under pressure; the next request re-simulates. ctx behaves as
// in SimVariantsCtx.
func (e *Engine) HarvestCtx(ctx context.Context, key SimKey, run Run) (*Harvest, error) {
	hk := newHarvestKey(key)
	return e.harvests.one(ctx, hk, func() (*Harvest, error) {
		h := &Harvest{}
		canon := hk.String()
		h.charge = func(bytes int64) {
			e.mu.Lock()
			e.mem.grow(canon, h, bytes)
			e.mu.Unlock()
		}
		a, err := e.simulateLeading(key, run, func(m *machine.Machine) error {
			h.In = listsched.FromMachineRun(m)
			return nil
		})
		h.Exact = a.Exact
		return h, err
	})
}

// SchedulesCtx returns the schedule summaries for keys, positionally
// aligned, through the same memory, flight and disk layers as
// SimVariantsCtx:
// compute receives the indices of the remaining misses (in key order)
// and must return their summaries in that order — typically one pooled
// ScheduleVariants call over the shared harvest, which is exactly why the
// misses are batched instead of resolved one key at a time. A key another
// submission is computing is shared, not computed again. ctx behaves as
// in SimVariantsCtx.
func (e *Engine) SchedulesCtx(ctx context.Context, keys []SchedKey, compute func(miss []int) ([]SchedSummary, error)) ([]SchedSummary, error) {
	return e.scheds.lookup(ctx, keys, compute)
}

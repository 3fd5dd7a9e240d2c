package engine

import (
	"slices"
	"sync"

	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/trace"
)

// Artifact is the cached value of one simulation: the run's Result and,
// for TrackExact keys, the unlimited-precision criticality tracker. It
// is the same value whether it was just computed or loaded from the
// disk cache; an entry of a TrackExact key that lacks the tracker is a
// miss, never a partial hit.
type Artifact struct {
	Res   machine.Result
	Exact *predictor.Exact
}

// complete reports whether a serves key: a TrackExact key's artifact is
// complete only with its tracker.
func (a *Artifact) complete(key SimKey) bool {
	return a != nil && (!key.TrackExact || a.Exact != nil)
}

// Run is the simulation behind an analysis or harvest job. It runs one
// machine, calls derive on it while it is live — inside its
// machine.SimulateVariants batch, before the batch recycles it — and
// returns the run's artifact. An error from derive fails the run. The
// engine derives whatever product the request's key names (a
// critical-path summary, a schedule harvest) and never touches a
// machine outside derive, so no cache entry ever holds one.
type Run func(derive func(*machine.Machine) error) (Artifact, error)

// Harvest is the idealized list scheduler's view of one run: the
// retirement-trace Input (release, latency, misprediction and
// completion per instruction) plus the exact criticality tracker of
// TrackExact keys, which the LoC and binary schedule priorities read.
// It is a memory-only engine product: on disk only the schedule
// summaries derived from it persist.
//
// A harvest also memoizes the issue orders popped over its Input, by
// priority name (Order, KeepOrder), so every schedule batch of the run
// after the first places along an order instead of popping the heap
// again. The orders are charged to the harvest's memory entry and
// dropped with it.
type Harvest struct {
	In    listsched.Input
	Exact *predictor.Exact

	mu     sync.Mutex
	orders map[string][]int32
	// charge adds bytes to the harvest's memory-cache entry while the
	// entry still holds this harvest.
	charge func(bytes int64)
}

// Order returns the issue order memoized under the priority name pri,
// or nil. Callers must not modify it.
func (h *Harvest) Order(pri string) []int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.orders[pri]
}

// KeepOrder memoizes a copy of ord as the issue order that the priority
// named pri pops over h.In, unless one is kept already, and charges it
// to the harvest's memory entry. The naming contract is SchedKey's: a
// name must resolve to the same priority every time, so any two orders
// kept under it are equal.
func (h *Harvest) KeepOrder(pri string, ord []int32) {
	h.mu.Lock()
	if _, ok := h.orders[pri]; ok {
		h.mu.Unlock()
		return
	}
	if h.orders == nil {
		h.orders = map[string][]int32{}
	}
	h.orders[pri] = slices.Clone(ord)
	h.mu.Unlock()
	if h.charge != nil {
		h.charge(int64(len(ord)) * bytesPerOrderInst)
	}
}

// Cost accounting for the memory cache, in approximate bytes.
const (
	bytesPerInst        = 64   // trace record plus dependence annotations
	bytesPerHarvestInst = 25   // Release, Latency, Complete and Mispredicted
	bytesPerOrderInst   = 4    // one int32 per instruction of a memoized issue order
	baseCost            = 4096 // map entry, Result, bookkeeping
	exactCost           = 1 << 16
)

// artifactCost estimates the resident size of a cached artifact.
func artifactCost(a Artifact) int64 {
	if a.Exact != nil {
		return baseCost + exactCost
	}
	return baseCost
}

// harvestCost estimates the resident size of a cached harvest.
func harvestCost(h *Harvest) int64 {
	cost := baseCost + int64(len(h.In.Release))*bytesPerHarvestInst
	if h.Exact != nil {
		cost += exactCost
	}
	return cost
}

func traceCost(tr *trace.Trace) int64 { return baseCost + int64(tr.Len())*bytesPerInst }

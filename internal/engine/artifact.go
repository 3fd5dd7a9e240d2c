package engine

import (
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

// Run is one simulation job body. It builds and runs a machine and
// returns it, still live, with the run's artifact. The engine derives
// whatever product the request's key names from the machine (nothing,
// a critical-path summary, a schedule harvest) and recycles it before
// the job returns, so no cache entry ever holds a machine.
type Run func() (*machine.Machine, Artifact, error)

// Harvest is the idealized list scheduler's view of one run: the
// retirement-trace Input (release, latency, misprediction and
// completion per instruction) plus the exact criticality tracker of
// TrackExact keys, which the LoC and binary schedule priorities read.
// It is a memory-only engine product: on disk only the schedule
// summaries derived from it persist.
type Harvest struct {
	In    listsched.Input
	Exact *predictor.Exact
}

// Cost accounting for the memory cache, in approximate bytes.
const (
	bytesPerInst        = 64   // trace record plus dependence annotations
	bytesPerHarvestInst = 25   // Release, Latency, Complete and Mispredicted
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

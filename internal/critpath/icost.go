package critpath

import (
	"fmt"

	"clustersim/internal/isa"
	"clustersim/internal/machine"
)

// Interaction-cost analysis (Fields, Bodik, Hill & Newburn, MICRO'03 —
// reference [8], which Section 3 leans on for its caveat: "previous work
// has demonstrated the presence of parallel critical and near-critical
// paths. Thus, a performance improvement is not guaranteed if slowdowns
// on only one critical path are addressed.")
//
// The recorded constraint graph reproduces the run's timing exactly: a
// forward longest-path pass over it yields the measured runtime. The
// *cost* of a penalty category is how much runtime drops when that
// category's edge-weight component is idealized away; the *interaction
// cost* of two categories is the extra drop from removing both at once
// beyond the sum of removing each alone. Negative interaction = the
// categories hide behind each other on parallel paths (fixing one alone
// buys less than its attribution suggests); positive = serial
// composition.
//
// SimulatedTime is the reference single-scenario replay; the Analyzer's
// fused ReplayScenarios computes whole zero-set lattices in one pass and
// is pinned to it by differential tests.

// ZeroSet selects penalty components to idealize away.
type ZeroSet struct {
	// Fwd removes inter-cluster forwarding delay (and broadcast waits).
	Fwd bool
	// Contention removes issue waits of data-ready instructions.
	Contention bool
	// MemLatency reduces every load to its L1-hit latency.
	MemLatency bool
	// BrMispredict removes branch-misprediction redirect edges (fetch
	// proceeds as if predicted correctly).
	BrMispredict bool
}

// Components of the interaction lattice, in scenario-mask bit order
// (mask bit 1<<Comp selects that component for zeroing).
const (
	CompFwd = iota
	CompContention
	CompMemLatency
	CompBrMispredict
	NumComponents

	// NumScenarios is the size of the full zero-set lattice.
	NumScenarios = 1 << NumComponents
)

// ComponentNames names the lattice components, indexed by Comp*.
var ComponentNames = [NumComponents]string{"fwd", "cont", "mem", "brmis"}

// MaskZeroSet returns the ZeroSet idealizing the components selected by
// mask (bit 1<<CompFwd = forwarding, and so on).
func MaskZeroSet(mask int) ZeroSet {
	return ZeroSet{
		Fwd:          mask&(1<<CompFwd) != 0,
		Contention:   mask&(1<<CompContention) != 0,
		MemLatency:   mask&(1<<CompMemLatency) != 0,
		BrMispredict: mask&(1<<CompBrMispredict) != 0,
	}
}

// SimulatedTime replays the recorded constraint graph as a forward
// longest-path computation, with the selected penalty components
// idealized away, and returns the resulting runtime (final commit
// cycle). With a zero ZeroSet it reproduces the measured runtime
// exactly — a property the tests enforce.
//
// This is the per-scenario reference implementation (the oracle the
// fused ReplayScenarios is differentially tested against); batch callers
// should prefer an Analyzer.
func SimulatedTime(m *machine.Machine, zero ZeroSet) (int64, error) {
	ev := m.Events()
	n := len(ev)
	if n == 0 || ev[n-1].Commit <= 0 {
		return 0, fmt.Errorf("critpath: run not complete")
	}
	cfg := m.Config()
	tr := m.Trace()
	// The L1-hit load latency MemLatency zeroing reduces loads to comes
	// from the run's own configuration — a non-default cache hit time
	// must not be idealized against the ISA default.
	hitLat := cfg.LoadHitLatency()

	arrD := make([]int64, n)
	arrE := make([]int64, n)
	arrC := make([]int64, n)

	// execParts decomposes an instruction's dispatch/operand-to-complete
	// delay into contention and latency components under zeroing.
	execParts := func(i int) (cont, lat int64) {
		e := &ev[i]
		cont = e.Issue - e.Ready
		if zero.Contention {
			cont = 0
		}
		lat = e.Complete - e.Issue
		if zero.MemLatency && tr.Insts[i].Op == isa.Load && lat > hitLat {
			lat = hitLat
		}
		return cont, lat
	}

	var prodBuf []int32
	for i := 0; i < n; i++ {
		e := &ev[i]

		// D(i): fetch-side and in-order constraints.
		var d int64
		if e.FetchReason == machine.FetchRedirect && e.FetchBlocker != machine.Unset {
			if !zero.BrMispredict {
				if v := arrE[e.FetchBlocker] + int64(cfg.PipelineDepth) + 1; v > d {
					d = v
				}
			}
			// Even with perfect prediction, fetch bandwidth still
			// applies via the structural edges below.
		} else if e.FetchBlocker != machine.Unset && e.FetchReason == machine.FetchBW {
			if v := arrD[e.FetchBlocker] + (e.Dispatch - ev[e.FetchBlocker].Dispatch); v > d {
				d = v
			}
		}
		if i > 0 {
			if v := arrD[i-1]; v > d {
				d = v // in-order dispatch
			}
		}
		if i >= cfg.FetchWidth {
			if v := arrD[i-cfg.FetchWidth] + 1; v > d {
				d = v // fetch bandwidth
			}
		}
		if i >= cfg.ROBSize {
			if v := arrC[i-cfg.ROBSize]; v > d {
				d = v // ROB recycling
			}
		}
		switch e.DispatchReason {
		case machine.DispWidth:
			if e.DispatchBlocker >= 0 {
				if v := arrD[e.DispatchBlocker] + (e.Dispatch - ev[e.DispatchBlocker].Dispatch); v > d {
					d = v
				}
			}
		case machine.DispROB:
			if e.DispatchBlocker >= 0 {
				if v := arrC[e.DispatchBlocker] + (e.Dispatch - ev[e.DispatchBlocker].Commit); v > d {
					d = v
				}
			}
		case machine.DispWindow:
			if e.DispatchBlocker >= 0 {
				b := e.DispatchBlocker
				if v := arrE[b] - (ev[b].Complete - ev[b].Issue) + (e.Dispatch - ev[b].Issue); v > d {
					d = v
				}
			}
		}
		// The front-end pipeline is an absolute floor: nothing dispatches
		// before cycle PipelineDepth (exact deltas cover everything
		// later, so this only anchors the start of the trace).
		if floor := int64(cfg.PipelineDepth); floor > d {
			d = floor
		}
		arrD[i] = d

		// E(i): operands (with optional fwd/contention/mem zeroing).
		cont, lat := execParts(i)
		x := arrD[i] + 1 + cont + lat // dispatch-bound floor
		prodBuf = tr.Producers(i, prodBuf[:0])
		for _, p := range prodBuf {
			w := int64(0)
			if ev[p].Cluster != e.Cluster && !zero.Fwd {
				w = ev[p].RemoteAvail - ev[p].Complete
			}
			if v := arrE[p] + w + cont + lat; v > x {
				x = v
			}
		}
		arrE[i] = x

		// C(i): completion + in-order commit.
		c := arrE[i] + 1
		if i > 0 && arrC[i-1] > c {
			c = arrC[i-1]
		}
		// Commit bandwidth: exact last-arriving edge.
		if i > 0 && e.Commit != e.Complete+1 {
			if v := arrC[i-1] + (e.Commit - ev[i-1].Commit); v > c {
				c = v
			}
		}
		arrC[i] = c
	}
	return arrC[n-1], nil
}

// InteractionCosts holds the pairwise analysis for the two clustering
// penalties the paper attributes (forwarding delay and contention).
type InteractionCosts struct {
	Base     int64 // measured runtime, reproduced by the graph replay
	CostFwd  int64 // runtime reduction from idealizing forwarding alone
	CostCont int64 // ... contention alone
	CostBoth int64 // ... both together
	// ICost = CostBoth − CostFwd − CostCont: negative means the two
	// penalties overlap on parallel paths.
	ICost int64
}

// InteractionMatrix is the full interaction-cost lattice over the four
// penalty components: the idealized runtime of all 2^4 zero-sets (one
// fused replay pass), the cost of each zero-set relative to the measured
// runtime, and every pairwise interaction cost. It quantifies the paper's
// parallel-paths caveat beyond the fwd/contention pair: a negative
// Pair[i][j] means components i and j hide behind each other on parallel
// near-critical paths.
type InteractionMatrix struct {
	// Runtime[mask] is the replayed runtime with the components in mask
	// idealized away (mask bit 1<<CompFwd = forwarding, etc.);
	// Runtime[0] is the measured runtime.
	Runtime [NumScenarios]int64
	// Cost[mask] = Runtime[0] − Runtime[mask].
	Cost [NumScenarios]int64
	// Pair[i][j] (i≠j) = Cost[i∪j] − Cost[i] − Cost[j]; the diagonal
	// holds each component's individual cost.
	Pair [NumComponents][NumComponents]int64
}

// Interaction extracts the legacy forwarding/contention pairwise analysis
// from the matrix.
func (im *InteractionMatrix) Interaction() InteractionCosts {
	return InteractionCosts{
		Base:     im.Runtime[0],
		CostFwd:  im.Cost[1<<CompFwd],
		CostCont: im.Cost[1<<CompContention],
		CostBoth: im.Cost[1<<CompFwd|1<<CompContention],
		ICost:    im.Pair[CompFwd][CompContention],
	}
}

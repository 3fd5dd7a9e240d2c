// Package critpath implements the critical-path model of Fields et al.
// (ISCA'01) as used by the paper: a dependence graph over the dynamic
// instruction stream whose nodes are per-instruction pipeline events and
// whose edges are the machine's actual last-arriving constraints. Walking
// backward from the final commit yields the chain of dependences that
// determined total runtime; attributing each edge to a microarchitectural
// cause produces the Figure 5 breakdown, and counting edge classes
// produces Figures 6(a) and 6(b).
//
// The simulator records the last-arriving constraint for every event while
// it runs, so the walk is a linear pass over recorded state — no
// re-simulation is needed.
//
// Analysis entry points come in two flavors: the package-level Analyze
// and AnalyzeRun allocate fresh result storage and are safe to retain,
// while the pooled Analyzer (its Analyze, ReplayScenarios and
// InteractionMatrix) reuses its scratch across
// calls for allocation-free analysis in hot loops (the online detector,
// the experiment engine).
package critpath

import (
	"errors"
	"fmt"

	"clustersim/internal/isa"
	"clustersim/internal/machine"
)

// Breakdown attributes the cycles of the critical path to causes. The
// fields mirror Figure 5's stack: forwarding delay, contention, execute,
// window, fetch, memory latency and branch misprediction; Commit covers
// retirement-bandwidth edges (not broken out by the paper; typically ~0).
// Boundary absorbs the span a windowed walk cannot attribute because the
// path crossed out of the analyzed range; it is zero for whole-run walks.
type Breakdown struct {
	FwdDelay     int64 // inter-cluster forwarding on critical dataflow
	Contention   int64 // issue waits of data-ready critical instructions
	Execute      int64 // functional-unit latency of non-memory ops
	MemLatency   int64 // load latency (including L2 misses)
	Fetch        int64 // front-end bandwidth and pipeline transit
	Window       int64 // ROB/window capacity and steering stalls
	BrMispredict int64 // misprediction resolution + refill
	Commit       int64 // retirement edges
	Boundary     int64 // span below a windowed walk's range boundary
}

// Total returns the cycles attributed across all causes; it equals the
// commit cycle of the walked range's last instruction — for whole-run and
// windowed walks alike (windowed walks book the pre-window span under
// Boundary).
func (b Breakdown) Total() int64 {
	return b.FwdDelay + b.Contention + b.Execute + b.MemLatency +
		b.Fetch + b.Window + b.BrMispredict + b.Commit + b.Boundary
}

// Add accumulates other into b.
func (b *Breakdown) Add(other Breakdown) {
	b.FwdDelay += other.FwdDelay
	b.Contention += other.Contention
	b.Execute += other.Execute
	b.MemLatency += other.MemLatency
	b.Fetch += other.Fetch
	b.Window += other.Window
	b.BrMispredict += other.BrMispredict
	b.Commit += other.Commit
	b.Boundary += other.Boundary
}

// Analysis is the result of one critical-path walk.
type Analysis struct {
	Breakdown Breakdown

	// Contention stall events on the path, split by whether the stalled
	// instruction had been predicted critical (Figure 6a).
	ContentionCritical int64
	ContentionOther    int64

	// Forwarding-delay events on the path, split by the consumer's
	// steering outcome (Figure 6b).
	FwdLoadBal int64
	FwdDyadic  int64
	FwdOther   int64

	// OnPath bit i-From reports whether instruction i's execution lies on
	// the walked critical path.
	OnPath Bits
	From   int64
	To     int64

	// Steps counts walk transitions (diagnostics).
	Steps int64
}

// IsCritical reports whether instruction seq executed on the critical path.
func (a *Analysis) IsCritical(seq int64) bool {
	if seq < a.From || seq >= a.To {
		return false
	}
	return a.OnPath.Get(seq - a.From)
}

type nodeKind uint8

const (
	nodeC nodeKind = iota // commit
	nodeE                 // execution complete
	nodeI                 // issue
	nodeD                 // dispatch
)

// nodeTime returns the pipeline-event time of a walk node. The walk
// maintains an exact invariant: at node (seq, kind) the cycles not yet
// attributed equal nodeTime(ev[seq], kind), because every transition
// attributes precisely the gap between its source and target node times.
// Attributing this residue when a windowed walk crosses its range
// boundary therefore makes Breakdown.Total equal the walked span exactly.
func nodeTime(e *machine.Event, kind nodeKind) int64 {
	switch kind {
	case nodeC:
		return e.Commit
	case nodeE:
		return e.Complete
	case nodeI:
		return e.Issue
	default:
		return e.Dispatch
	}
}

// ErrTruncated reports a walk that exceeded its step bound without
// reaching the start of its range. Every transition moves to a strictly
// older event time or an older instruction, so a well-formed event log
// can never trip this; it guards against log corruption turning the walk
// into an endless (or silently wrong) traversal.
var ErrTruncated = errors.New("critpath: walk exceeded step bound")

// maxStepsPerInst scales the defensive step bound: a walk over k
// instructions may take at most (k+1)*maxStepsPerInst transitions. A real
// walk needs at most ~4 per instruction (one per node kind); the slack
// keeps the bound far from any legitimate walk. Tests shrink it to
// exercise the truncation path.
var maxStepsPerInst = int64(16)

// Analyze walks the critical path of the committed range [from, to) of a
// finished (or epoch-complete) run and returns the attribution. The range
// must be fully committed. The result uses freshly allocated storage; use
// an Analyzer to reuse state across walks.
func Analyze(m *machine.Machine, from, to int64) (*Analysis, error) {
	a := new(Analysis)
	if err := walk(m, from, to, a); err != nil {
		return nil, err
	}
	return a, nil
}

// AnalyzeRun walks the whole run.
func AnalyzeRun(m *machine.Machine) (*Analysis, error) {
	return Analyze(m, 0, int64(len(m.Events())))
}

// walk performs the backward walk into a, reusing a's OnPath storage.
func walk(m *machine.Machine, from, to int64, a *Analysis) error {
	ev := m.Events()
	if from < 0 || to <= from || to > int64(len(ev)) {
		return fmt.Errorf("critpath: bad range [%d, %d) of %d", from, to, len(ev))
	}
	if ev[to-1].Commit == machine.Unset {
		return fmt.Errorf("critpath: instruction %d not committed", to-1)
	}
	tr := m.Trace()
	*a = Analysis{From: from, To: to, OnPath: a.OnPath.reset(to - from)}

	kind := nodeC
	seq := to - 1
	// The walk must terminate: every transition moves to a strictly older
	// event time or an older instruction; bound steps defensively.
	maxSteps := (to - from + 1) * maxStepsPerInst
	for {
		if seq < 0 {
			break // walked to cycle zero: the span is fully attributed
		}
		if seq < from {
			// The path crossed out of the analyzed range; everything
			// before the current node's event time is outside the window.
			a.Breakdown.Boundary += nodeTime(&ev[seq], kind)
			break
		}
		if a.Steps >= maxSteps {
			return fmt.Errorf("critpath: walk of [%d, %d) stuck at seq %d after %d steps: %w",
				from, to, seq, a.Steps, ErrTruncated)
		}
		a.Steps++
		e := &ev[seq]
		switch kind {
		case nodeC:
			if seq > 0 && e.Commit != e.Complete+1 {
				// Blocked behind in-order commit.
				a.Breakdown.Commit += e.Commit - ev[seq-1].Commit
				seq--
				continue
			}
			// Complete→commit transit (normally the minimal 1 cycle; at
			// the very start of the trace any residual gap also lands
			// here, letting the pipeline fill reach Fetch via node D).
			a.Breakdown.Commit += e.Commit - e.Complete
			kind = nodeE
		case nodeE:
			a.OnPath.set(seq - from)
			lat := e.Complete - e.Issue
			if tr.Insts[seq].Op == isa.Load {
				a.Breakdown.MemLatency += lat
			} else {
				a.Breakdown.Execute += lat
			}
			kind = nodeI
		case nodeI:
			a.OnPath.set(seq - from)
			if cont := e.Issue - e.Ready; cont > 0 {
				a.Breakdown.Contention += cont
				if e.PredCritical {
					a.ContentionCritical++
				} else {
					a.ContentionOther++
				}
			}
			if e.CritProducer != machine.Unset {
				if e.CritProducerRemote {
					// Ready equals the last-arriving producer's remote
					// availability: forwarding latency plus any wait for
					// a bypass broadcast slot.
					a.Breakdown.FwdDelay += e.Ready - ev[e.CritProducer].Complete
					switch e.SteerTag {
					case machine.SteerLoadBalanced:
						a.FwdLoadBal++
					case machine.SteerDyadic:
						a.FwdDyadic++
					default:
						a.FwdOther++
					}
				}
				seq = e.CritProducer
				kind = nodeE
				continue
			}
			// Readiness was bounded by dispatch (+1 cycle transit).
			a.Breakdown.Window++
			kind = nodeD
		case nodeD:
			switch e.DispatchReason {
			case machine.DispPipeline:
				if e.FetchReason == machine.FetchRedirect && e.FetchBlocker != machine.Unset {
					// The whole resolve→refetch→dispatch span belongs to
					// the misprediction.
					a.Breakdown.BrMispredict += e.Dispatch - ev[e.FetchBlocker].Complete
					seq = e.FetchBlocker
					kind = nodeE
					continue
				}
				if e.FetchBlocker == machine.Unset {
					// Start of trace: pipeline fill from cycle 0.
					a.Breakdown.Fetch += e.Dispatch
					seq = -1
					continue
				}
				a.Breakdown.Fetch += e.Dispatch - ev[e.FetchBlocker].Dispatch
				seq = e.FetchBlocker
			case machine.DispWidth:
				if e.DispatchBlocker < 0 {
					a.Breakdown.Fetch += e.Dispatch
					seq = -1
					continue
				}
				a.Breakdown.Fetch += e.Dispatch - ev[e.DispatchBlocker].Dispatch
				seq = e.DispatchBlocker
			case machine.DispROB:
				if e.DispatchBlocker < 0 {
					a.Breakdown.Window += e.Dispatch
					seq = -1
					continue
				}
				a.Breakdown.Window += e.Dispatch - ev[e.DispatchBlocker].Commit
				seq = e.DispatchBlocker
				kind = nodeC
			case machine.DispWindow:
				if e.DispatchBlocker < 0 {
					a.Breakdown.Window += e.Dispatch
					seq = -1
					continue
				}
				a.Breakdown.Window += e.Dispatch - ev[e.DispatchBlocker].Issue
				seq = e.DispatchBlocker
				kind = nodeI
			}
		}
	}
	return nil
}

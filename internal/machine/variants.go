package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/bpred"
	"clustersim/internal/trace"
)

// This file implements SimulateVariants: fused simulation of several
// machine configurations over one trace. The listsched package proved
// the shape for the idealized scheduler (prepare once, replay per
// variant, validate against a retained reference); this is the same
// fusion for the full machine. A machine run on its own (New + Run) is a
// one-variant batch. Three kinds of work are shared or specialized:
//
//  1. Front-end profile (frontProfile). Fetch processes instructions
//     strictly in program order and consults gshare exactly once per
//     branch, in trace order, regardless of FetchWidth, cluster count
//     or any timing: a misprediction stalls *when* the next branch is
//     fetched, never *whether* or in what order. Branch outcomes
//     therefore depend only on the trace's branch subsequence and the
//     predictor geometry (GshareBits), so one program-order gshare pass
//     serves every variant with the same GshareBits. The L1 is
//     deliberately NOT shared: data-cache accesses happen at issue
//     time, and issue order is config-dependent, so each variant keeps
//     (and trains) its own cache. That asymmetry is the exact sharing
//     boundary; TestFrontEndSharingBoundary pins it.
//
//  2. Dependence graph (traceGraph). The consumer transpose of the
//     trace's producer CSR, built once per batch into pooled buffers and
//     shared read-only by every variant's replay.
//
//  3. Steering kernel (KernelSpec). Stateless policies advertise a
//     KernelSpec; the machine then replicates their Steer decision
//     procedure inline — no SteerView, no interface calls, no per-call
//     map allocation — and skips their (no-op, per the Kernel contract)
//     OnIssue/OnCommit notifications. Predictions are looked up live, so
//     training hooks may update the predictors mid-run. Stateful
//     policies use the interface path, counted in SharingStats.
//
// Every replay runs on the packed engine (fusedissue.go). The full-scan
// loop behind UseOracleIssue is the reference every replay is
// differentially gated against (oracle_test.go, variants_test.go).

// Variant describes one configuration to fuse into a SimulateVariants
// call. Each variant must bring its own predictor instances in Hooks —
// predictors are trained during the run, so sharing one instance across
// variants would leak state between them (and break order invariance).
type Variant struct {
	Config Config
	Pol    SteerPolicy
	Hooks  Hooks
	// Setup, if non-nil, runs after the variant's machine is built and
	// bound but before Run — the hook point for binding a criticality
	// detector to the machine.
	Setup func(*Machine)
}

// VariantResult pairs one variant's live machine with its run summary.
// Machines come from the shared pool; the caller owns them and should
// Recycle each once its events are no longer needed.
type VariantResult struct {
	M   *Machine
	Res Result
}

// SharingStats counts, per SimulateVariants call, how many variants ran
// on the inlined steering kernel and how the replay phase was spread.
type SharingStats struct {
	// KernelUsed counts variants steered by the inlined kernel;
	// KernelFallback counts variants whose policy does not advertise a
	// kernel and used the SteerPolicy interface path.
	KernelUsed, KernelFallback int
	// ReplayWorkers is the worker count the replay phase ran with;
	// ReplayBusyNs sums wall time spent inside per-variant replays
	// across those workers (busy / elapsed ≈ achieved parallelism).
	ReplayWorkers int
	ReplayBusyNs  int64
}

// variantPrep is the serial prepare phase's output for one variant:
// everything the replay needs that is shared or deterministic.
type variantPrep struct {
	profile *frontProfile
	kern    *KernelSpec
	mode    replayMode
}

// SimulateVariants runs every variant over tr, sharing the producer
// index and its transpose and the front-end branch profile, and returns
// the per-variant machines and results in variant order.
//
// workers bounds the replay fan-out: after the serial prepare phase
// (consumer CSR, branch profiles, steering kernels), per-variant replays
// are stolen off a shared cursor by this many workers, each owning its
// own pooled packed working set; <=1 replays serially. Results are
// stitched in input order, and variants neither observe each other nor
// share mutable state, so output is byte-identical under any worker
// count, to running each variant on its own (New + Run) and to the scan
// oracle; permuting the variant list permutes the results and nothing
// else. A variant New would reject (see Config.Validate and MaxInsts)
// fails the batch before anything runs. On error, machines built so far
// are recycled and none are returned.
func SimulateVariants(tr *trace.Trace, variants []Variant, workers int) ([]VariantResult, SharingStats, error) {
	var stats SharingStats
	if tr == nil || tr.Len() == 0 {
		return nil, stats, fmt.Errorf("machine: empty trace")
	}
	if len(variants) == 0 {
		return nil, stats, nil
	}
	for i := range variants {
		if err := Admit(variants[i].Config, tr.Len()); err != nil {
			return nil, stats, fmt.Errorf("machine: variant %d: %w", i, err)
		}
	}
	tr.EnsureProducerIndex()
	g := getTraceGraph(tr)
	defer putTraceGraph(g)
	maxClusters := 0
	for i := range variants {
		maxClusters = max(maxClusters, variants[i].Config.Clusters)
	}

	// Prepare phase: one profile per predictor geometry, kernels and
	// replay modes — all serial.
	profiles := map[uint]*frontProfile{}
	preps := make([]variantPrep, len(variants))
	for i := range variants {
		v := &variants[i]
		p := profiles[v.Config.GshareBits]
		if p == nil {
			p = newFrontProfile(tr, v.Config.GshareBits)
			profiles[v.Config.GshareBits] = p
		}
		preps[i].profile = p
		preps[i].kern = kernelOf(v.Pol)
		if preps[i].kern != nil {
			stats.KernelUsed++
		} else {
			stats.KernelFallback++
		}
		hookFree := v.Hooks.OnEpoch == nil && v.Hooks.OnCommitInst == nil && v.Setup == nil
		preps[i].mode = replayModeFor(preps[i].kern != nil, hookFree)
	}

	workers = min(max(workers, 1), len(variants))
	stats.ReplayWorkers = workers

	out := make([]VariantResult, len(variants))
	var busy atomic.Int64
	var firstErr error
	if workers == 1 {
		// Serial replay: one packed working set serves the whole batch
		// (each run resets it).
		fr := getFusedRun(tr.Len(), maxClusters)
		defer putFusedRun(fr)
		for i := range variants {
			start := time.Now()
			m, res, err := runVariant(tr, g, &variants[i], &preps[i], fr)
			busy.Add(time.Since(start).Nanoseconds())
			if err != nil {
				firstErr = fmt.Errorf("machine: variant %d: %w", i, err)
				break
			}
			out[i] = VariantResult{M: m, Res: res}
		}
	} else {
		// Parallel fan-out: workers steal variant indices off a shared
		// cursor; each owns its own pooled packed working set. All
		// shared state (tr, g, profiles) is read-only during this phase;
		// everything mutable is per-variant. The lowest-index error wins,
		// matching engine.MapCtx.
		var next atomic.Int64
		errs := make([]error, len(variants))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fr := getFusedRun(tr.Len(), maxClusters)
				defer putFusedRun(fr)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(variants) {
						return
					}
					start := time.Now()
					m, res, err := runVariantSafe(tr, g, &variants[i], &preps[i], fr)
					busy.Add(time.Since(start).Nanoseconds())
					if err != nil {
						errs[i] = err
						continue
					}
					out[i] = VariantResult{M: m, Res: res}
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				firstErr = fmt.Errorf("machine: variant %d: %w", i, err)
				break
			}
		}
	}
	stats.ReplayBusyNs = busy.Load()
	if firstErr != nil {
		for _, r := range out {
			Recycle(r.M)
		}
		return nil, stats, firstErr
	}
	return out, stats, nil
}

// runVariant replays one prepared variant on the batch's g and fr and
// returns its machine and result. The machine outlives the call; g and
// fr are detached before returning.
func runVariant(tr *trace.Trace, g *traceGraph, v *Variant, prep *variantPrep, fr *fusedRun) (*Machine, Result, error) {
	m, err := newPooled(v.Config, tr, v.Pol, v.Hooks, prep)
	if err != nil {
		return nil, Result{}, err
	}
	if v.Setup != nil {
		v.Setup(m)
	}
	return m, m.replay(g, fr), nil
}

// runVariantSafe is runVariant with panic containment for the parallel
// workers: a panicking replay must surface as that variant's error, not
// crash the process from a goroutine the engine's job recovery cannot
// see. The serial path keeps the raw panic (it unwinds through the
// caller, where the engine's own containment applies).
func runVariantSafe(tr *trace.Trace, g *traceGraph, v *Variant, prep *variantPrep, fr *fusedRun) (m *Machine, res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("machine: variant replay panicked: %v", r)
		}
	}()
	return runVariant(tr, g, v, prep, fr)
}

// frontProfile is the shared front-end replay: one program-order gshare
// pass over the trace, recording which branches mispredict. It serves
// every configuration with the same GshareBits over the same trace (see
// the sharing-contract comment at the top of this file).
type frontProfile struct {
	miss []uint64 // bitset over seq: set iff that branch mispredicted
}

// gsharePool recycles the predictors newFrontProfile trains: only their
// miss bitmap outlives the batch, and a 16-bit table is 64 KiB.
var gsharePool sync.Pool

// newFrontProfile trains a reset gshare over tr's branches in program
// order — exactly the update sequence fetch performs — and records the
// outcome per branch.
func newFrontProfile(tr *trace.Trace, bits uint) *frontProfile {
	p := &frontProfile{miss: make([]uint64, (tr.Len()+63)/64)}
	bp, ok := gsharePool.Get().(*bpred.Gshare)
	if ok && bp.Bits() == bits {
		bp.Reset()
	} else {
		bp = bpred.NewGshare(bits)
	}
	defer gsharePool.Put(bp)
	for i := range tr.Insts {
		in := &tr.Insts[i]
		if in.Op.IsBranch() {
			if correct := bp.Update(in.PC, in.Taken); !correct {
				p.miss[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return p
}

// mispredicted reports the recorded outcome for branch seq.
func (p *frontProfile) mispredicted(seq int64) bool {
	return p.miss[seq>>6]>>(uint64(seq)&63)&1 != 0
}

// traceGraph is a trace's dependence graph in the shape the packed
// engine walks it: the producer CSR (the trace's own) plus its
// transpose, so the consumers of p are consIdx[consOff[p]:consOff[p+1]],
// in program order. Issue walks a producer's consumers instead of
// registering waiters per run. It is built per batch (or per standalone
// run) into pooled buffers and shared read-only across that batch's
// variants; no copy outlives the run that built it.
type traceGraph struct {
	prodOff, prodIdx []int32
	consOff, consIdx []int32
}

var graphPool = sync.Pool{New: func() any { return new(traceGraph) }}

// getTraceGraph fills a pooled traceGraph for tr, whose producer index
// must be built; putTraceGraph returns it.
func getTraceGraph(tr *trace.Trace) *traceGraph {
	g := graphPool.Get().(*traceGraph)
	n := tr.Len()
	g.prodOff, g.prodIdx = tr.ProducerIndex()
	// Transpose by counting sort: count consumers per producer, prefix
	// sum, then scatter each consumer at its producer's cursor. The
	// scatter advances consOff[p] to p+1's start, so shifting the array
	// up one slot restores the offsets.
	g.consOff = resize(g.consOff, n+1)
	clear(g.consOff)
	for _, p := range g.prodIdx {
		g.consOff[p+1]++
	}
	for i := 0; i < n; i++ {
		g.consOff[i+1] += g.consOff[i]
	}
	g.consIdx = resize(g.consIdx, len(g.prodIdx))
	for i := 0; i < n; i++ {
		for _, p := range g.prodIdx[g.prodOff[i]:g.prodOff[i+1]] {
			g.consIdx[g.consOff[p]] = int32(i)
			g.consOff[p]++
		}
	}
	copy(g.consOff[1:], g.consOff[:n])
	g.consOff[0] = 0
	return g
}

func putTraceGraph(g *traceGraph) {
	g.prodOff, g.prodIdx = nil, nil // the trace's, not the pool's
	graphPool.Put(g)
}

// KernelScore selects how a steering kernel scores candidate producers,
// mirroring the scoring closures of the steer package's stateless
// policies.
type KernelScore uint8

const (
	// KernelScoreNone scores every producer 0 (dependence-based
	// steering: the first outstanding producer wins).
	KernelScoreNone KernelScore = iota
	// KernelScoreBinary scores 1 when the binary predictor marks the
	// producer's PC critical (focused steering).
	KernelScoreBinary
	// KernelScoreLoC scores by the LoC predictor's level for the
	// producer's PC.
	KernelScoreLoC
)

// KernelSpec is a stateless steering policy's declarative description,
// precise enough for the machine to replicate its Steer decision
// procedure inline. A policy advertising a spec promises that
//
//   - its Steer is exactly the steer package's dependence-based
//     skeleton (pick the best-scoring outstanding producer, first
//     maximum wins; its cluster if there is space, else least-loaded
//     with space, else stall) under Score — plus, when Stall is set,
//     the stall-over-steer hold at StallThreshold, and
//   - its OnIssue, OnCommit and Reset are no-ops,
//
// so the engine may skip the interface calls entirely. The differential
// battery enforces the promise: a spec that drifts from the policy's
// Steer breaks byte-identity with the scan oracle, which calls Steer.
type KernelSpec struct {
	Score KernelScore
	// Stall enables the stall-over-steer hold: when the desired
	// producer's cluster is full and the dispatching instruction's LoC
	// fraction reaches StallThreshold, stall instead of load-balancing.
	Stall          bool
	StallThreshold float64
}

// SteerKernel is implemented by steering policies that can describe
// themselves as a KernelSpec. Kernel returns ok=false when the policy
// cannot currently be kernelized (the machine then steers that run
// through the interface path).
type SteerKernel interface {
	Kernel() (spec KernelSpec, ok bool)
}

// kernelOf returns pol's steering kernel spec, or nil when pol does not
// advertise one.
func kernelOf(pol SteerPolicy) *KernelSpec {
	kp, ok := pol.(SteerKernel)
	if !ok {
		return nil
	}
	spec, ok := kp.Kernel()
	if !ok {
		return nil
	}
	return &spec
}

// kernOcc is the kernel's view of cluster c's occupancy — the
// start-of-cycle snapshot under group steering, live otherwise —
// matching SteerView.Occupancy.
func (m *Machine) kernOcc(c int) int {
	if m.cfg.GroupSteering {
		return m.occSnap[c]
	}
	return m.clusters[c].occ
}

// kernLeastLoaded mirrors the steer package's leastLoadedWithSpace: the
// least-occupied cluster with window space, lowest index winning ties.
func (m *Machine) kernLeastLoaded() (int, bool) {
	best, bestOcc, found := 0, 0, false
	for c := 0; c < m.cfg.Clusters; c++ {
		occ := m.kernOcc(c)
		if occ >= m.cfg.WindowPerCluster {
			continue
		}
		if !found || occ < bestOcc {
			best, bestOcc, found = c, occ, true
		}
	}
	return best, found
}

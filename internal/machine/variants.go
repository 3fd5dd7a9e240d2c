package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/bpred"
	"clustersim/internal/predictor"
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
//  3. Steering kernel (kernelState). Stateless policies advertise a
//     KernelSpec; the machine then replicates their Steer decision
//     procedure inline — no SteerView, no interface calls, no per-call
//     map allocation — and skips their (no-op, per the Kernel contract)
//     OnIssue/OnCommit notifications. When the variant's hooks carry no
//     training callbacks the per-PC predictions are additionally
//     memoized per sequence number. Stateful policies use the interface
//     path, counted in SharingStats.
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
// on each shared/fused facility and how many fell back. The fallbacks
// are correctness guards, not errors: a fallback variant still produces
// byte-identical output, just without that facility's speedup.
type SharingStats struct {
	// BpredShared counts variants that replayed the shared front-end
	// profile; BpredFallback counts variants that kept a live per-variant
	// gshare because the profile failed the sharing guard.
	BpredShared, BpredFallback int
	// KernelUsed counts variants steered by the inlined kernel;
	// KernelFallback counts variants whose policy does not advertise a
	// kernel and used the SteerPolicy interface path.
	KernelUsed, KernelFallback int
	// MemoUsed counts kernel variants with static predictors whose
	// per-instruction predictions were memoized; MemoFallback counts
	// kernel variants that kept live predictor lookups because training
	// hooks (OnEpoch/OnCommitInst) were attached.
	MemoUsed, MemoFallback int
	// GridGroups counts distinct prediction memos built for the batch
	// (one per distinct predictor state); GridShared counts memo
	// attachments served from an already-built group instead of a fresh
	// O(n) prediction pass — the forwarding-latency grid fusion win,
	// since fwd-axis variants share geometry, stack and predictor state.
	GridGroups, GridShared int
	// EventsElided counts per-instruction event-log writes skipped by
	// zero-materialization replays (VariantsOptions.ResultOnly): one per
	// instruction per elided variant.
	EventsElided int64
	// ReplayWorkers is the worker count the replay phase ran with;
	// ReplayBusyNs sums wall time spent inside per-variant replays
	// across those workers (busy / elapsed ≈ achieved parallelism).
	ReplayWorkers int
	ReplayBusyNs  int64
}

// VariantsOptions tunes how SimulateVariants replays a prepared batch.
// The zero value reproduces the serial reference path exactly.
type VariantsOptions struct {
	// Workers bounds the replay fan-out: after the shared prepare
	// (consumer CSR, branch profiles, steering kernels),
	// per-variant replays are stolen off a shared cursor by this many
	// workers, each owning its own pooled packed-engine state. Results
	// are stitched in input order, so output is byte-identical to the
	// serial path under any worker count. <=1 means serial.
	Workers int
	// ResultOnly declares that the caller consumes only each variant's
	// Result (never Events): eligible variants skip event-log
	// materialization entirely — no allocation, no clear, no writes
	// pass. Eligibility is per-variant: a steering kernel, no training
	// hooks, no Setup; ineligible variants still materialize, so the
	// option is always safe. Elided machines return empty Events().
	ResultOnly bool
}

// SimulateVariants runs every variant over tr sequentially, sharing the
// producer index and its transpose and the front-end branch profile, and
// returns the per-variant machines and results in variant order. It is
// the serial reference for SimulateVariantsOpts.
//
// Output is byte-identical to running each variant on its own (New +
// Run) and to the scan oracle: variants neither observe each other nor
// share mutable state, so permuting the variant list permutes the
// results and nothing else. A variant New would reject (see Config.
// Validate and MaxInsts) fails the batch before anything runs. On error,
// machines built so far are recycled and none are returned.
func SimulateVariants(tr *trace.Trace, variants []Variant) ([]VariantResult, SharingStats, error) {
	return SimulateVariantsOpts(tr, variants, VariantsOptions{})
}

// variantPrep is the serial prepare phase's output for one variant:
// everything the replay needs that is shared, deterministic, or must be
// computed in variant order (memo grouping).
type variantPrep struct {
	profile *frontProfile
	kern    *kernelState
	mode    replayMode
}

// SimulateVariantsOpts is SimulateVariants with a bounded parallel
// replay phase and the zero-materialization result path. The prepare
// phase (CSRs, branch profiles, kernels, memo grouping) always runs
// serially in variant order, so SharingStats and all shared state are
// identical under any worker count; replays share nothing mutable, so
// results are byte-identical to the serial path regardless of Workers.
func SimulateVariantsOpts(tr *trace.Trace, variants []Variant, opt VariantsOptions) ([]VariantResult, SharingStats, error) {
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

	// Prepare phase: profiles per predictor geometry, kernels with
	// cross-variant memo sharing, replay modes — all serial.
	profiles := map[uint]*frontProfile{}
	preps := make([]variantPrep, len(variants))
	var bank memoBank
	for i := range variants {
		v := &variants[i]
		p := profiles[v.Config.GshareBits]
		if p == nil {
			p = newFrontProfile(tr, v.Config.GshareBits)
			profiles[v.Config.GshareBits] = p
		}
		// The profile sharing guard; profiles built here always pass it.
		if p.fits(v.Config, tr) {
			preps[i].profile = p
			stats.BpredShared++
		} else {
			stats.BpredFallback++
		}
		preps[i].kern = buildKernel(v.Pol, v.Hooks, tr, &stats, &bank)
		hookFree := v.Hooks.OnEpoch == nil && v.Hooks.OnCommitInst == nil && v.Setup == nil
		preps[i].mode = replayModeFor(preps[i].kern != nil, hookFree, opt.ResultOnly)
		if preps[i].mode == modeElided {
			stats.EventsElided += int64(tr.Len())
		}
	}

	workers := opt.Workers
	if workers > len(variants) {
		workers = len(variants)
	}
	if workers < 1 {
		workers = 1
	}
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
		// shared state (tr, g, profiles, kernel memos) is read-only
		// during this phase; everything mutable is per-variant. The
		// lowest-index error wins, matching engine.MapCtx.
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
// pass over the trace, recording which branches mispredict. Valid for
// any configuration with the same GshareBits (see the sharing-contract
// comment at the top of this file); useFrontProfile is the guard.
type frontProfile struct {
	bits  uint
	insts int
	miss  []uint64 // bitset over seq: set iff that branch mispredicted
}

// newFrontProfile trains a fresh gshare over tr's branches in program
// order — exactly the update sequence fetch performs — and records the
// outcome per branch.
func newFrontProfile(tr *trace.Trace, bits uint) *frontProfile {
	n := tr.Len()
	p := &frontProfile{bits: bits, insts: n, miss: make([]uint64, (n+63)/64)}
	bp := bpred.NewGshare(bits)
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

// useFrontProfile attaches p as m's branch-outcome source for the next
// Run. It refuses — returning false, leaving the live per-variant
// gshare in place — when p was recorded under a different predictor
// geometry or trace than m's own, i.e. when sharing would violate the
// front-end contract.
func (m *Machine) useFrontProfile(p *frontProfile) bool {
	if p == nil || !p.fits(m.cfg, m.tr) {
		return false
	}
	m.profile = p
	return true
}

// fits reports whether p was recorded under cfg's predictor geometry
// over tr.
func (p *frontProfile) fits(cfg Config, tr *trace.Trace) bool {
	return p.bits == cfg.GshareBits && p.insts == tr.Len()
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

// kernelState is one variant's resolved steering kernel: the spec plus
// (when the variant's predictors are static for the whole run) per-seq
// memoized predictions serving both kernel scoring and dispatch-time
// event sampling.
type kernelState struct {
	spec     KernelSpec
	predCrit []bool  // nil: consult m.binary live
	locLevel []uint8 // nil: consult m.loc live
}

// memoBank deduplicates kernel prediction memos across a variant batch:
// the forwarding-latency grid fusion. A fwd-axis sweep varies only
// FwdLatency, so its variants carry predictors in identical states; the
// memo arrays (predCrit, locLevel) are pure functions of predictor
// state and the trace PC column, so one array serves every such
// variant. Sharing whole steering/dispatch images across the fwd axis
// would NOT be sound — FwdLatency feeds RemoteAvail, which feeds the
// outstanding-producer test inside steering itself (pinned by
// TestFwdGridSharingBoundary) — so only the prediction memos fuse.
// The guard is predictor state equality (predictor.Binary.StateEqual /
// predictor.LoC.StateEqual); memos are only built for variants with no
// training hooks, so states cannot diverge mid-batch.
type memoBank struct {
	bins []binMemo
	locs []locMemo
}

type binMemo struct {
	pred *predictor.Binary
	arr  []bool
}

type locMemo struct {
	pred *predictor.LoC
	arr  []uint8
}

// predCritFor returns the criticality memo for b, reusing a state-equal
// group's array when one exists.
func (mb *memoBank) predCritFor(b *predictor.Binary, tr *trace.Trace, stats *SharingStats) []bool {
	for i := range mb.bins {
		if mb.bins[i].pred == b || mb.bins[i].pred.StateEqual(b) {
			stats.GridShared++
			return mb.bins[i].arr
		}
	}
	arr := make([]bool, tr.Len())
	for s := range tr.Insts {
		arr[s] = b.Predict(tr.Insts[s].PC)
	}
	mb.bins = append(mb.bins, binMemo{pred: b, arr: arr})
	stats.GridGroups++
	return arr
}

// locLevelFor returns the LoC-level memo for l, reusing a state-equal
// group's array when one exists.
func (mb *memoBank) locLevelFor(l *predictor.LoC, tr *trace.Trace, stats *SharingStats) []uint8 {
	for i := range mb.locs {
		if mb.locs[i].pred == l || mb.locs[i].pred.StateEqual(l) {
			stats.GridShared++
			return mb.locs[i].arr
		}
	}
	arr := make([]uint8, tr.Len())
	for s := range tr.Insts {
		arr[s] = uint8(l.Level(tr.Insts[s].PC))
	}
	mb.locs = append(mb.locs, locMemo{pred: l, arr: arr})
	stats.GridGroups++
	return arr
}

// kernelSpecOf returns pol's steering kernel spec, if it advertises one.
func kernelSpecOf(pol SteerPolicy) (KernelSpec, bool) {
	kp, ok := pol.(SteerKernel)
	if !ok {
		return KernelSpec{}, false
	}
	return kp.Kernel()
}

// buildKernel resolves pol's steering kernel, if any, updating stats.
// Prediction memos are only safe when nothing trains the predictors
// during the run: kernel policies never do (no-op notifications, per
// the KernelSpec contract), so the remaining writers are the hooks'
// training callbacks — any of those attached forces live lookups.
// Memos are deduplicated through bank across the batch (grid fusion).
func buildKernel(pol SteerPolicy, hooks Hooks, tr *trace.Trace, stats *SharingStats, bank *memoBank) *kernelState {
	spec, ok := kernelSpecOf(pol)
	if !ok {
		stats.KernelFallback++
		return nil
	}
	k := &kernelState{spec: spec}
	stats.KernelUsed++
	if hooks.OnEpoch != nil || hooks.OnCommitInst != nil {
		stats.MemoFallback++
		return k
	}
	if hooks.Binary != nil {
		k.predCrit = bank.predCritFor(hooks.Binary, tr, stats)
	}
	if hooks.LoC != nil {
		k.locLevel = bank.locLevelFor(hooks.LoC, tr, stats)
	}
	stats.MemoUsed++
	return k
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

package machine

import (
	"fmt"
	"slices"

	"clustersim/internal/bpred"
	"clustersim/internal/cache"
	"clustersim/internal/isa"
	"clustersim/internal/predictor"
	"clustersim/internal/trace"
)

// MaxILPBucket caps the available-ILP histogram (Figure 15's x axis).
const MaxILPBucket = 24

// DefaultEpochLen is how many retirements elapse between criticality-
// detector epochs (Hooks.OnEpoch invocations).
const DefaultEpochLen = 4096

// Hooks wires optional predictors and the online criticality detector
// into a machine. All fields may be nil/zero.
type Hooks struct {
	// Binary is the Fields binary criticality predictor consulted by
	// focused steering/scheduling and trained by the detector.
	Binary *predictor.Binary
	// LoC is the likelihood-of-criticality predictor (Sections 4–6).
	LoC *predictor.LoC
	// EpochLen overrides DefaultEpochLen when positive.
	EpochLen int64
	// OnEpoch, if set, is called after every EpochLen retirements with
	// the retired range [from, to); the online detector hangs here.
	OnEpoch func(from, to int64)
	// OnCommitInst, if set, is called for every retirement, in order.
	// The token-passing detector hangs here.
	OnCommitInst func(seq int64)
}

// Machine is one simulated processor configuration bound to a trace and a
// steering policy. Call Run to simulate (it resets state itself); Reinit
// rebinds the machine to a new configuration/trace/policy while reusing
// its allocations, which is what the NewPooled/Recycle pool builds on.
//
// Every run replays on the packed issue engine (fusedissue.go): a run on
// its own is a one-variant SimulateVariants batch, with pooled packed
// state, the trace's consumer CSR and a front-end profile. The engine is
// wakeup-driven — each dispatched instruction counts its unissued
// producers and joins its cluster's wake ring the moment the last one
// issues — and stretches of cycles that provably perform no work are
// skipped by a next-event clock (idleCycles). The full-scan loop behind
// UseOracleIssue (oracle.go) is the single reference it is gated against.
type Machine struct {
	cfg    Config
	tr     *trace.Trace
	pol    SteerPolicy
	bp     *bpred.Gshare
	l1     *cache.Cache
	binary *predictor.Binary
	loc    *predictor.LoC

	epochLen     int64
	onEpoch      func(from, to int64)
	onCommitInst func(seq int64)

	events []Event

	// Global bypass broadcast slots (BypassPerCluster > 0): per-cluster
	// ring of per-cycle counts, stamped lazily.
	bcastStamp [][]int64
	bcastCount [][]int16

	// mode is how the run replays: the scan oracle, or the packed engine
	// over a cleared or an uncleared event log.
	mode replayMode

	// Pipeline state.
	cycle          int64
	nextFetch      int64
	fetchResume    int64
	redirectFrom   int64 // branch whose resolution restarted fetch; tags the next fetch
	blockingBranch int64 // unresolved mispredicted branch gating fetch
	dispHead       int64 // next instruction to dispatch (fetched, in-order)
	commitIdx      int64 // next instruction to commit
	dispatched     int64 // count dispatched (ROB occupancy = dispatched - commitIdx)
	clusters       []clusterState
	lastIssuedFrom []int64 // last instruction to free a slot per cluster

	// Why the head of the dispatch queue failed to dispatch last time.
	havePending    bool
	pendingReason  DispatchReason
	pendingBlocker int64

	// steerPend is per-dispatch-iteration scratch: the count of the
	// steered instruction's unissued producers (raw multiplicity),
	// piggybacked on the steering walk for fusedEnqueue.
	steerPend int32

	// Statistics.
	mispredicts      int64
	branches         int64
	globalValues     int64
	steerCounts      [5]int64
	steerStallCycles int64
	ilpAvail         [MaxILPBucket + 1]int64
	ilpIssued        [MaxILPBucket + 1]int64

	// Scratch buffers.
	candBuf   []candidate
	viewBuf   SteerView
	retireBuf RetireView
	occSnap   []int // start-of-cycle occupancies (GroupSteering)
	budgets   []issueBudget
	cursors   []int // per-cluster ready-list cursors (fusedIssueMerge)

	// readyCount[c] is the number of data-ready-but-unissued entries in
	// cluster c's window as of this cycle's issue phase. Steering runs
	// after issue within the cycle, so policies may consult it as a
	// fresh view of readiness (Section 8's "global and accurate view of
	// instruction readiness").
	readyCount []int

	// Reuse bookkeeping: what the current bp/l1 were built from, so
	// Reinit can keep them when the geometry is unchanged.
	bpBits uint
	l1cfg  cache.Config

	// Replay state (see variants.go and fusedissue.go), nil in oracle
	// mode. profile replaces live gshare updates with precomputed
	// outcomes, graph holds the trace's producer and consumer CSRs,
	// kern (when the policy advertises a kernel) replaces the SteerPolicy
	// interface calls with an inlined kernel, and fr is the packed
	// engine's working set. graph and fr are pooled and attached only for
	// the duration of a run.
	profile *frontProfile
	graph   *traceGraph
	kern    *KernelSpec
	fr      *fusedRun
}

// replayMode selects the issue loop and whether the run clears the event
// log first. A replay may skip the clear only if it is packed and nothing
// reads the log mid-run.
type replayMode uint8

const (
	// modeOracle is the reference full-scan loop (UseOracleIssue): live
	// gshare, the SteerPolicy interface, every event written in place.
	modeOracle replayMode = iota
	// modeLive replays on the packed engine over a cleared event log, so
	// training hooks, Setup-bound detectors and SteerView producer lists
	// may read in-flight events mid-run and see Unset where the oracle
	// would.
	modeLive
	// modeNoReset skips the pre-run clear. Legal only when nothing reads
	// the log mid-run (kernel steering, no training hooks, no Setup):
	// fetch, dispatch and issue then write every field of every event
	// exactly once, so the previous run's values never show.
	modeNoReset
)

// replayModeFor is the highest mode a packed replay may use: a steering
// kernel and no mid-run event readers allow skipping the clear.
func replayModeFor(kernel, hookFree bool) replayMode {
	if kernel && hookFree {
		return modeNoReset
	}
	return modeLive
}

type clusterState struct {
	occ int // window occupancy (every mode)

	// Oracle mode: the flat window the reference loop scans per cycle.
	entries []winEntry
}

type winEntry struct {
	seq  int64
	prio uint16
	// Cached readiness: Unset until every producer has issued (at which
	// point the ready cycle, binding producer and remoteness are fixed
	// forever, so they need computing only once).
	ready  int64
	crit   int64
	remote bool
}

type issueBudget struct{ width, integer, fp, mem int }

type candidate struct {
	seq     int64
	cluster int
	prio    uint16
	ready   int64
	crit    int64
	remote  bool
}

// New builds a machine for cfg over tr using the given steering policy.
func New(cfg Config, tr *trace.Trace, pol SteerPolicy, hooks Hooks) (*Machine, error) {
	m := &Machine{}
	if err := m.Reinit(cfg, tr, pol, hooks); err != nil {
		return nil, err
	}
	return m, nil
}

// Reinit rebinds m to (cfg, tr, pol, hooks), reusing the event log,
// cluster state and broadcast rings from previous runs wherever
// capacities allow. It leaves m in the same state New leaves a fresh
// machine in; NewPooled/Recycle build the allocation-free reuse path on
// top of it.
func (m *Machine) Reinit(cfg Config, tr *trace.Trace, pol SteerPolicy, hooks Hooks) error {
	return m.bind(cfg, tr, pol, hooks, nil)
}

// bind is Reinit with an optional prepared replay: a SimulateVariants
// batch passes each variant's shared profile, kernel and mode; a machine
// built on its own (prep == nil) gets the mode a one-variant batch would
// pick and prepares the rest when it runs.
func (m *Machine) bind(cfg Config, tr *trace.Trace, pol SteerPolicy, hooks Hooks, prep *variantPrep) error {
	if tr == nil || tr.Len() == 0 {
		return fmt.Errorf("machine: empty trace")
	}
	if err := Admit(cfg, tr.Len()); err != nil {
		return err
	}
	if pol == nil {
		return fmt.Errorf("machine: nil steering policy")
	}
	// Pre-build the shared producer index outside the hot loop (also
	// makes sharing tr across concurrent machines safe).
	tr.EnsureProducerIndex()

	m.cfg, m.tr, m.pol = cfg, tr, pol
	m.binary, m.loc = hooks.Binary, hooks.LoC
	m.epochLen = hooks.EpochLen
	if m.epochLen <= 0 {
		m.epochLen = DefaultEpochLen
	}
	m.onEpoch, m.onCommitInst = hooks.OnEpoch, hooks.OnCommitInst
	m.graph, m.fr = nil, nil
	if prep != nil {
		m.profile, m.kern, m.mode = prep.profile, prep.kern, prep.mode
	} else {
		m.profile, m.kern, m.mode = nil, nil, m.soloMode()
	}

	m.events = resize(m.events, tr.Len())
	if m.bp == nil || m.bpBits != cfg.GshareBits {
		m.bp, m.bpBits = bpred.NewGshare(cfg.GshareBits), cfg.GshareBits
	}
	if m.l1 == nil || m.l1cfg != cfg.L1 {
		m.l1, m.l1cfg = cache.New(cfg.L1), cfg.L1
	}
	if cap(m.clusters) >= cfg.Clusters {
		m.clusters = m.clusters[:cfg.Clusters]
	} else {
		cl := make([]clusterState, cfg.Clusters)
		copy(cl, m.clusters[:cap(m.clusters)]) // keep recycled per-cluster slices
		m.clusters = cl
	}
	m.lastIssuedFrom = resize(m.lastIssuedFrom, cfg.Clusters)
	m.occSnap = resize(m.occSnap, cfg.Clusters)
	m.readyCount = resize(m.readyCount, cfg.Clusters)
	m.budgets = resize(m.budgets, cfg.Clusters)
	m.cursors = resize(m.cursors, cfg.Clusters)

	if cfg.BypassPerCluster > 0 {
		for len(m.bcastStamp) < cfg.Clusters {
			m.bcastStamp = append(m.bcastStamp, make([]int64, bcastRing))
			m.bcastCount = append(m.bcastCount, make([]int16, bcastRing))
		}
	}
	return nil
}

// soloMode is the replay mode a one-variant batch of m's policy and
// hooks (and no Setup) picks.
func (m *Machine) soloMode() replayMode {
	return replayModeFor(kernelOf(m.pol) != nil, m.onEpoch == nil && m.onCommitInst == nil)
}

// resize returns s with length n, reallocating only when capacity is
// short. Contents are unspecified; every user fully rewrites them.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// UseOracleIssue switches m to the reference scheduler: a per-cycle full
// scan over every window entry, with no cycle skipping, live gshare and
// the SteerPolicy interface. It exists for the differential and golden
// tests (the packed engine must be cycle-exact against it) and must be
// called before Run; Reinit switches it off again.
func (m *Machine) UseOracleIssue(on bool) {
	m.profile, m.kern = nil, nil
	if on {
		m.mode = modeOracle
	} else {
		m.mode = m.soloMode()
	}
}

// bcastRing sizes the broadcast-slot ring; broadcasts are scheduled at
// most a few cycles past completion, far below this bound.
const bcastRing = 4096

// broadcastSlot reserves the earliest global-bypass slot at or after
// cycle t for a value produced in cluster c, and returns that cycle.
func (m *Machine) broadcastSlot(c int, t int64) int64 {
	limit := int16(m.cfg.BypassPerCluster)
	for {
		i := t % bcastRing
		if m.bcastStamp[c][i] != t {
			m.bcastStamp[c][i] = t
			m.bcastCount[c][i] = 0
		}
		if m.bcastCount[c][i] < limit {
			m.bcastCount[c][i]++
			return t
		}
		t++
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Trace returns the trace the machine executes.
func (m *Machine) Trace() *trace.Trace { return m.tr }

// Events returns the per-instruction event records, one per trace
// instruction. Valid after Run, which always completes the log.
func (m *Machine) Events() []Event { return m.events }

// Result summarizes one run.
type Result struct {
	ConfigName  string
	PolicyName  string
	Cycles      int64
	Insts       int64
	Branches    int64
	Mispredicts int64
	L1Accesses  uint64
	L1MissRate  float64
	// GlobalValues counts produced values consumed by at least one other
	// cluster (Section 2.1 reports these per instruction).
	GlobalValues int64
	// SteerCounts tallies dispatches by steering outcome, indexed by
	// SteerTag (nopref/local/loadbal/dyadic/proactive).
	SteerCounts [5]int64
	// SteerStallCycles counts cycles on which dispatch was blocked at the
	// steering stage (window full or a deliberate stall-over-steer hold).
	SteerStallCycles int64
	// ILPAvail[k] counts cycles on which k instructions were ready
	// across all clusters; ILPIssued[k] sums instructions issued on
	// those cycles (Figure 15).
	ILPAvail  [MaxILPBucket + 1]int64
	ILPIssued [MaxILPBucket + 1]int64
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 { return float64(r.Cycles) / float64(r.Insts) }

// IPC returns instructions per cycle.
func (r Result) IPC() float64 { return float64(r.Insts) / float64(r.Cycles) }

// GlobalValuesPerInst returns inter-cluster values per instruction.
func (r Result) GlobalValuesPerInst() float64 {
	return float64(r.GlobalValues) / float64(r.Insts)
}

// MispredictRate returns the fraction of branches gshare mispredicted.
func (r Result) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

// Run simulates the whole trace and returns the run summary. Outside
// oracle mode a machine run on its own replays as a one-variant batch:
// it builds its front-end profile and steering kernel and borrows a
// pooled consumer CSR and packed working set for the duration of the run.
func (m *Machine) Run() Result {
	if m.mode == modeOracle {
		return m.run()
	}
	m.profile = newFrontProfile(m.tr, m.cfg.GshareBits)
	m.kern = kernelOf(m.pol)
	if m.kern == nil && m.mode > modeLive {
		m.mode = modeLive // the policy stopped advertising its kernel
	}
	g := getTraceGraph(m.tr)
	fr := getFusedRun(m.tr.Len(), m.cfg.Clusters)
	res := m.replay(g, fr)
	putFusedRun(fr)
	putTraceGraph(g)
	return res
}

// replay runs m on the packed engine with the given pooled working set,
// detaching it again before returning: the machine outlives the run,
// g and fr go back to their owner.
func (m *Machine) replay(g *traceGraph, fr *fusedRun) Result {
	m.graph, m.fr = g, fr
	res := m.run()
	m.graph, m.fr = nil, nil
	return res
}

// run is the cycle loop shared by every mode.
func (m *Machine) run() Result {
	m.reset()
	n := int64(m.tr.Len())
	for m.commitIdx < n {
		m.commit()
		if m.mode == modeOracle {
			m.issueScan()
		} else {
			m.fusedIssue()
		}
		m.dispatch()
		m.fetch()
		m.cycle++
		if m.mode != modeOracle && m.commitIdx < n {
			if skip := m.idleCycles(); skip > 0 {
				// The reference loop would burn these cycles with an empty
				// issue phase; mirror its available-ILP accounting (the
				// in-flight/undispatched condition cannot change while no
				// stage does work).
				if m.dispatched > m.commitIdx || m.dispHead < n {
					m.ilpAvail[0] += skip
				}
				m.cycle += skip
			}
		}
	}
	missRate, accesses := m.l1.MissRate()
	return Result{
		ConfigName:       m.cfg.Name(),
		PolicyName:       m.pol.Name(),
		Cycles:           m.cycle,
		Insts:            n,
		Branches:         m.branches,
		Mispredicts:      m.mispredicts,
		L1Accesses:       accesses,
		L1MissRate:       missRate,
		GlobalValues:     m.globalValues,
		SteerCounts:      m.steerCounts,
		SteerStallCycles: m.steerStallCycles,
		ILPAvail:         m.ilpAvail,
		ILPIssued:        m.ilpIssued,
	}
}

// idleCycles returns how many cycles starting at m.cycle provably perform
// no pipeline work, so Run's next-event clock can skip them. Soundness
// rests on one rule: any cycle on which the steering stage would be
// consulted (dispatch head delivered and the ROB has room) is never
// skipped, because steering reads time-dependent state (a producer stays
// Outstanding only until its value becomes globally visible) and policies
// may mutate their own state per Steer call. Everything else — front-end
// delivery bubbles, ROB-full stalls (whose pending-reason bookkeeping is
// idempotent), post-misprediction fetch holds and in-flight latency
// waits — replays identically cycle after cycle until the next event.
func (m *Machine) idleCycles() int64 {
	t := m.cycle
	n := int64(m.tr.Len())
	next := int64(-1)
	consider := func(c int64) {
		if next == -1 || c < next {
			next = c
		}
	}

	// Commit: the head retires on the first cycle strictly after its
	// completion. An unissued head is bounded by the issue conditions;
	// an undispatched one's packed record is the previous run's.
	if m.commitIdx < m.dispHead {
		if c := int64(m.fr.st[m.commitIdx].complete); c != Unset {
			if c+1 <= t {
				return 0
			}
			consider(c + 1)
		}
	}

	// Issue: matured-but-unissued entries guarantee work next cycle (the
	// first sorted candidate of a cluster always fits the issue budget);
	// otherwise the earliest pending wake maturation bounds the skip.
	// The packed engine tracks that minimum exactly per cluster
	// (wringMin/wfarMin), so the bound is exact.
	for c := range m.clusters {
		if len(m.fr.ready[c]) > int(m.fr.rdHead[c]) {
			return 0
		}
		if r := m.fr.wringMin[c]; r != wakeNone {
			if r <= t {
				return 0
			}
			consider(r)
		}
		if r := m.fr.wfarMin[c]; r != wakeNone {
			if r <= t {
				return 0
			}
			consider(r)
		}
	}

	// Dispatch/steering.
	// "Has the head been fetched" comes from the in-order fetch cursor: an
	// uncleared log holds the previous run's value for unfetched events.
	if m.dispHead < m.nextFetch {
		delivered := m.events[m.dispHead].Fetch + int64(m.cfg.PipelineDepth)
		switch {
		case delivered > t:
			consider(delivered)
		case m.dispatched-m.commitIdx < int64(m.cfg.ROBSize):
			return 0 // steering would run: never skip
		}
		// Delivered but ROB-full: stalled until the next commit, which
		// the commit condition above already bounds.
	}

	// Fetch: blocked on an unresolved branch, it resumes only via an
	// issue event (bounded above); otherwise fetchResume bounds it.
	if m.nextFetch < n && m.fetchResume != fetchBlocked {
		if m.fetchResume <= t {
			return 0
		}
		consider(m.fetchResume)
	}

	if next <= t {
		return 0 // no future event: don't skip (matches the scan loop)
	}
	return next - t
}

func (m *Machine) reset() {
	// From modeNoReset on every event field is rewritten before anyone
	// reads it (see replayMode); clearing 104 bytes per instruction there
	// would be pure memory traffic.
	if m.mode < modeNoReset {
		for i := range m.events {
			m.events[i].reset()
		}
	}
	if m.fr != nil {
		m.fr.reset()
	}
	m.cycle = 0
	m.nextFetch = 0
	m.fetchResume = 0
	m.redirectFrom = Unset
	m.blockingBranch = Unset
	m.dispHead = 0
	m.commitIdx = 0
	m.dispatched = 0
	for c := range m.clusters {
		cs := &m.clusters[c]
		cs.occ = 0
		cs.entries = cs.entries[:0]
		m.lastIssuedFrom[c] = Unset
	}
	// A pooled machine may carry broadcast stamps from a previous run
	// whose cycle numbers could collide with this run's.
	if m.cfg.BypassPerCluster > 0 {
		for c := 0; c < m.cfg.Clusters; c++ {
			clear(m.bcastStamp[c])
			clear(m.bcastCount[c])
		}
	}
	m.havePending = false
	m.mispredicts = 0
	m.branches = 0
	m.globalValues = 0
	m.steerCounts = [5]int64{}
	m.steerStallCycles = 0
	m.ilpAvail = [MaxILPBucket + 1]int64{}
	m.ilpIssued = [MaxILPBucket + 1]int64{}
	if m.profile == nil {
		// With a front-end profile attached the live gshare is never
		// consulted, so its state is irrelevant to the run.
		m.bp.Reset()
	}
	m.l1.Reset()
	m.pol.Reset()
}

// commit retires completed instructions in order, up to CommitWidth per
// cycle, and fires detector epochs.
func (m *Machine) commit() {
	n := int64(m.tr.Len())
	for w := 0; w < m.cfg.CommitWidth && m.commitIdx < n; w++ {
		if m.mode == modeOracle {
			ev := &m.events[m.commitIdx]
			if ev.Complete == Unset || ev.Complete >= m.cycle {
				break
			}
		} else {
			// The dispatch-cursor guard keeps this off packed records the
			// run has not initialized yet (st is not cleared between runs).
			if m.commitIdx >= m.dispHead {
				break
			}
			if c := m.fr.st[m.commitIdx].complete; c < 0 || int64(c) >= m.cycle {
				break
			}
		}
		m.events[m.commitIdx].Commit = m.cycle
		if m.kern == nil {
			// Kernel policies declare OnCommit a no-op (KernelSpec
			// contract), so the engine skips the interface call.
			m.retireBuf.m, m.retireBuf.seq = m, m.commitIdx
			m.pol.OnCommit(m.commitIdx, &m.retireBuf)
		}
		if m.onCommitInst != nil {
			m.onCommitInst(m.commitIdx)
		}
		m.commitIdx++
		if m.onEpoch != nil && m.commitIdx%m.epochLen == 0 {
			m.onEpoch(m.commitIdx-m.epochLen, m.commitIdx)
		}
	}
}

// readyAt computes the cycle at which window entry seq has all operands
// available at its cluster, or Unset if some producer has not issued.
// It also reports the last-arriving producer and whether that operand
// crossed clusters. Once every producer has issued the answer is fixed
// forever, so the scan loop caches it per window entry.
func (m *Machine) readyAt(seq int64) (ready, crit int64, remote bool) {
	ev := &m.events[seq]
	ready = ev.Dispatch + 1
	crit = Unset
	for _, p32 := range m.tr.ProducerSpan(int(seq)) {
		p := int64(p32)
		pev := &m.events[p]
		if pev.Complete == Unset {
			return Unset, Unset, false
		}
		avail := pev.Complete
		rem := pev.Cluster != ev.Cluster
		if rem {
			avail = pev.RemoteAvail
		}
		if avail > ready || (avail == ready && crit == Unset) {
			ready = avail
			crit = p
			remote = rem
		}
	}
	return ready, crit, remote
}

// issueSelect issues from the scan loop's gathered candidates
// (oldest-first within priority class, subject to per-cluster width and
// FU budgets), keeps the available/issued ILP histograms, and returns how
// many issued.
func (m *Machine) issueSelect() int {
	avail := len(m.candBuf)
	if avail == 0 {
		if m.dispatched > m.commitIdx || m.dispHead < int64(m.tr.Len()) {
			m.ilpAvail[0]++
		}
		return 0
	}
	slices.SortFunc(m.candBuf, func(a, b candidate) int {
		if a.prio != b.prio {
			return int(a.prio) - int(b.prio)
		}
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})

	budgets := m.budgets
	for c := range budgets {
		budgets[c] = issueBudget{m.cfg.IssuePerCluster, m.cfg.IntPerCluster, m.cfg.FPPerCluster, m.cfg.MemPerCluster}
	}

	issued := 0
	for i := range m.candBuf {
		cd := &m.candBuf[i]
		b := &budgets[cd.cluster]
		if b.width == 0 {
			continue
		}
		in := &m.tr.Insts[cd.seq]
		switch in.Op.FU() {
		case isa.FUInt:
			if b.integer == 0 {
				continue
			}
			b.integer--
		case isa.FUFP:
			if b.fp == 0 {
				continue
			}
			b.fp--
		case isa.FUMem:
			if b.mem == 0 {
				continue
			}
			b.mem--
		}
		b.width--
		m.issueOne(cd)
		issued++
	}
	bucket := avail
	if bucket > MaxILPBucket {
		bucket = MaxILPBucket
	}
	m.ilpAvail[bucket]++
	m.ilpIssued[bucket] += int64(issued)
	return issued
}

// issueOne executes one instruction for the scan loop: fixes its
// timestamps, accesses the cache for memory operations, resolves
// blocking branches, and counts global values.
func (m *Machine) issueOne(cd *candidate) {
	seq := cd.seq
	ev := &m.events[seq]

	ev.Ready = cd.ready
	ev.Issue = m.cycle
	ev.CritProducer = cd.crit
	ev.CritProducerRemote = cd.remote

	in := &m.tr.Insts[seq]
	lat := int64(in.Op.Latency())
	isLoad := in.Op == isa.Load
	isStore := in.Op == isa.Store
	hasOut := in.HasDst() || isStore // writes a register or drains a store value
	if isLoad {
		accessLat, hit := m.l1.Access(in.Addr)
		if !hit {
			ev.L1Miss = true
		}
		// Address generation plus the cache's reported access time, so a
		// non-default L1.HitCycles changes hit latency too (identical to
		// the ISA latency on the default geometry).
		lat = loadAgenCycles + int64(accessLat)
	} else if isStore {
		m.l1.Access(in.Addr) // write-allocate; latency hidden by commit
	}
	ev.Complete = m.cycle + lat
	// The value becomes visible to other clusters after the forwarding
	// latency — waiting for a broadcast slot first if the global bypass
	// network's bandwidth is limited.
	if m.cfg.Clusters > 1 && hasOut {
		bcast := ev.Complete
		if m.cfg.BypassPerCluster > 0 {
			bcast = m.broadcastSlot(cd.cluster, bcast)
		}
		ev.RemoteAvail = bcast + int64(m.cfg.FwdLatency)
	} else {
		ev.RemoteAvail = ev.Complete + int64(m.cfg.FwdLatency)
	}

	// Count global values: a producer's value becomes "global" the first
	// time any consumer in another cluster reads it.
	for _, p32 := range m.tr.ProducerSpan(int(seq)) {
		pev := &m.events[p32]
		if pev.Cluster != ev.Cluster && !pev.globalCounted() {
			pev.markGlobalCounted()
			m.globalValues++
		}
	}

	if seq == m.blockingBranch {
		m.fetchResume = ev.Complete + 1
		m.redirectFrom = seq
		m.blockingBranch = Unset
	}
	m.clusters[cd.cluster].occ--
	m.lastIssuedFrom[cd.cluster] = seq
	m.pol.OnIssue(seq, cd.cluster)
}

// hasSpace reports real (not snapshot) window availability.
func (m *Machine) hasSpace(c int) bool {
	return m.clusters[c].occ < m.cfg.WindowPerCluster
}

// dispatch steers fetched instructions, in order, into cluster windows.
func (m *Machine) dispatch() {
	n := int64(m.tr.Len())
	if m.cfg.GroupSteering {
		// The whole dispatch group steers against start-of-cycle state
		// (Section 8: a realistic steering circuit cannot serially
		// account for intra-cycle placements).
		for c := range m.clusters {
			m.occSnap[c] = m.clusters[c].occ
		}
	}
	for w := 0; w < m.cfg.DispatchWidth && m.dispHead < n; w++ {
		seq := m.dispHead
		if seq >= m.nextFetch {
			break // not yet fetched
		}
		fetchC := m.events[seq].Fetch
		if fetchC+int64(m.cfg.PipelineDepth) > m.cycle {
			break // not yet delivered by the front end
		}
		if m.dispatched-m.commitIdx >= int64(m.cfg.ROBSize) {
			m.setPending(DispROB, seq-int64(m.cfg.ROBSize))
			break
		}

		var dec Decision
		if m.kern != nil {
			dec = m.steerKernelPacked(seq)
		} else {
			view := &m.viewBuf
			view.m = m
			view.seq = seq
			view.snapOcc = nil
			if m.cfg.GroupSteering {
				view.snapOcc = m.occSnap
			}
			view.producers = m.gatherProducers(seq, view.producers[:0])
			dec = m.pol.Steer(view)
		}
		if dec.Stall || !m.hasSpace(dec.Cluster) {
			blocker := Unset
			if dec.Cluster >= 0 && dec.Cluster < m.cfg.Clusters {
				blocker = m.lastIssuedFrom[dec.Cluster]
			}
			m.setPending(DispWindow, blocker)
			m.steerStallCycles++
			break
		}

		// Dispatch for real.
		if int(dec.Tag) < len(m.steerCounts) {
			m.steerCounts[dec.Tag]++
		}
		predCrit := m.binary != nil && m.binary.Predict(m.tr.Insts[seq].PC)
		lvl := 0
		if m.loc != nil {
			lvl = m.loc.Level(m.tr.Insts[seq].PC)
		}
		var prio uint16
		switch m.cfg.SchedMode {
		case SchedBinaryCritical:
			if !predCrit {
				prio = 1
			}
		case SchedLoC:
			prio = uint16(predictor.LoCLevels - 1 - lvl)
		}

		reason, blocker := DispWidth, seq-1
		switch {
		case m.cycle == fetchC+int64(m.cfg.PipelineDepth):
			reason, blocker = DispPipeline, Unset
		case m.havePending:
			reason, blocker = m.pendingReason, m.pendingBlocker
		}
		m.havePending = false

		ev := &m.events[seq]
		ev.Dispatch = m.cycle
		ev.Cluster = int16(dec.Cluster)
		ev.SteerTag = dec.Tag
		ev.PredCritical = predCrit
		ev.LoCLevel = uint8(lvl)
		ev.DispatchReason = reason
		ev.DispatchBlocker = blocker

		if m.mode == modeOracle {
			m.clusters[dec.Cluster].entries = append(m.clusters[dec.Cluster].entries,
				winEntry{seq: seq, prio: prio, ready: Unset, crit: Unset})
		} else {
			m.fusedEnqueue(seq, dec.Cluster, prio)
		}
		m.clusters[dec.Cluster].occ++
		m.dispHead++
		m.dispatched++
	}
}

// setPending remembers why the dispatch head is blocked, for attribution
// when it finally dispatches.
func (m *Machine) setPending(reason DispatchReason, blocker int64) {
	m.havePending = true
	m.pendingReason = reason
	m.pendingBlocker = blocker
}

// gatherProducers builds the steering view's producer list: one entry per
// distinct producer of the dispatching instruction's operands.
func (m *Machine) gatherProducers(seq int64, dst []ProducerInfo) []ProducerInfo {
	pend := int32(0)
	for _, p32 := range m.tr.ProducerSpan(int(seq)) {
		p := int64(p32)
		pev := &m.events[p]
		// Piggybacked dispatch-pend count (raw multiplicity) for
		// fusedEnqueue on live replays; dead weight in the scan loop.
		if pev.Complete == Unset {
			pend++
		}
		dup := false
		for i := range dst {
			if dst[i].Seq == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		outstanding := pev.Complete == Unset || pev.RemoteAvail > m.cycle
		cluster := int(pev.Cluster)
		if m.cfg.GroupSteering && pev.Dispatch == m.cycle {
			// Steered earlier this very cycle: a group-steering circuit
			// has not seen its placement yet.
			cluster = -1
		}
		dst = append(dst, ProducerInfo{
			Seq:         p,
			PC:          m.tr.Insts[p].PC,
			Cluster:     cluster,
			Outstanding: outstanding,
		})
	}
	m.steerPend = pend
	return dst
}

// fetch advances the front end: up to FetchWidth instructions per cycle,
// blocking at gshare mispredictions until the branch resolves.
func (m *Machine) fetch() {
	n := int64(m.tr.Len())
	if m.nextFetch >= n || m.cycle < m.fetchResume {
		return
	}
	// Every instruction in the first fetch cycle after a redirect is
	// gated by the misprediction, not by fetch bandwidth; tag the whole
	// batch so critical-path attribution charges the branch.
	redirect := m.redirectFrom
	m.redirectFrom = Unset
	for w := 0; w < m.cfg.FetchWidth && m.nextFetch < n; w++ {
		seq := m.nextFetch
		ev := &m.events[seq]
		ev.Fetch = m.cycle
		// Set to true later, if at all; an uncleared log (modeNoReset)
		// needs the false written.
		ev.Mispredicted, ev.globalDone = false, false
		if redirect != Unset {
			ev.FetchReason = FetchRedirect
			ev.FetchBlocker = redirect
		} else {
			ev.FetchReason = FetchBW
			if seq >= int64(m.cfg.FetchWidth) {
				ev.FetchBlocker = seq - int64(m.cfg.FetchWidth)
			} else {
				ev.FetchBlocker = Unset
			}
		}
		m.nextFetch++
		in := &m.tr.Insts[seq]
		if in.Op.IsBranch() {
			m.branches++
			// The front-end profile replays the outcome this machine's own
			// gshare would produce (fetch consults the predictor once per
			// branch, in program order, so outcomes are config-independent
			// up to GshareBits; see variants.go). Only the scan oracle
			// trains the live gshare.
			var correct bool
			if m.profile != nil {
				correct = !m.profile.mispredicted(seq)
			} else {
				correct = m.bp.Update(in.PC, in.Taken)
			}
			if !correct {
				ev.Mispredicted = true
				m.mispredicts++
				m.blockingBranch = seq
				m.fetchResume = fetchBlocked
				return
			}
		}
	}
}

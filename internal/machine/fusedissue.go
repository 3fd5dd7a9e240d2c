package machine

import (
	"fmt"
	"sync"

	"clustersim/internal/isa"
)

// This file is the packed issue engine, the machine's only production
// issue loop: every run outside UseOracleIssue replays here, as one
// variant of a SimulateVariants batch or on its own (New + Run).
// It runs on dense per-sequence state instead of the 104-byte Event
// records the scan oracle walks:
//
//   - fseq: a 16-byte record of the fields the wakeup/steering paths
//     read at random (completion, remote availability, dispatch cycle,
//     cluster, priority, pending-producer count) — four instructions per
//     cache line instead of ~0.5.
//   - producer and consumer adjacency come from the trace's CSR index
//     and its transpose (built per run in the pooled traceGraph): issue
//     walks the static consumer list and only touches consumers that
//     have dispatched, so no per-run waiter registration exists.
//   - per-instruction facts (op, address) are read from the trace
//     record itself: in-flight instructions span at most a ROB's worth
//     of consecutive records, which stay cache-resident.
//   - wake rings and ready lists hold packed keys. A wake bucket holds
//     the seqs maturing at one cycle, and any order among equal ready
//     cycles is behaviorally identical because the ready list sorts
//     matured entries by (prio, seq). The ready list key is
//     prio<<32|seq, whose uint64 order IS the scan oracle's (prio, seq)
//     candidate order, so the k-way merge compares one word.
//
// Every event the scan oracle records is written to m.events with the
// same value, at the same stage except for readiness: Ready,
// CritProducer and CritProducerRemote are final once the last producer
// issues, so fusedWake writes them then, before the instruction issues.
// No reader looks at an unissued instruction's event (detectors walk
// retired instructions; steering policies read no events). Output stays
// byte-identical to the oracle, which the differential battery
// (oracle_test.go, variants_test.go, parallel_test.go and
// FuzzSimulateVariants) and the oracle-generated goldens enforce.

// MaxInsts, MaxClusters and MaxFwdLatency bound what the engine admits:
// cycle values are stored in int32 (fusedCycleCap keeps them clear of
// overflow), clusters in uint8, and the merge keeps per-cluster cursors
// in stack arrays of MaxClusters. New, SimulateVariants and the windowed
// store runs reject anything larger with an error; traces longer than
// MaxInsts are simulated window by window (SimulateStoreObserved).
const (
	MaxInsts      = 1 << 24
	MaxClusters   = 16
	MaxFwdLatency = 1 << 10
	fusedCycleCap = int64(1) << 30
)

// worstInstSlack covers the per-instruction steps worstInstCycles does
// not name: a fetch redirect, dispatch, the ready cycle after dispatch,
// commit, plus at most one cycle each of issue-port and broadcast-slot
// contention, which amortize to one per instruction over a run.
const worstInstSlack = 8

// Admit reports whether the engine can simulate insts instructions
// under cfg, with the error New and SimulateVariants would return: an
// invalid configuration, more than MaxInsts instructions, or a worst
// case (every instruction paying the longest latency the configuration
// allows, one after another) past fusedCycleCap, the engine's int32
// cycle headroom.
func Admit(cfg Config, insts int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if insts > MaxInsts {
		return fmt.Errorf("machine: trace of %d instructions exceeds the %d-instruction limit; simulate longer traces window by window (machine.SimulateStoreObserved)", insts, MaxInsts)
	}
	if worst := int64(insts) * cfg.worstInstCycles(); worst > fusedCycleCap {
		return fmt.Errorf("machine: %d instructions at up to %d cycles each may run %d cycles, past the %d-cycle limit; shorten the trace or the configured latencies",
			insts, cfg.worstInstCycles(), worst, fusedCycleCap)
	}
	return nil
}

// worstInstCycles bounds how far one instruction can push the run's end
// past its predecessor's: the front-end pipeline, the longest execution
// latency (an L1-missing load or the slowest op), the forwarding hop,
// and worstInstSlack.
func (c Config) worstInstCycles() int64 {
	exec := loadAgenCycles + int64(c.L1.HitCycles) + int64(c.L1.MissCycles)
	for op := isa.Op(0); op < isa.NumOps; op++ {
		exec = max(exec, int64(op.Latency()))
	}
	return int64(c.PipelineDepth) + exec + int64(c.FwdLatency) + worstInstSlack
}

// fseq flag bits.
const (
	fGlobalCounted uint8 = 1 << iota // value already charged as inter-cluster
	fIssued                          // instruction has issued
)

// fseq is the packed per-instruction state of one replay. Cycle fields
// are -1 until the event happens, mirroring Unset. Readiness is not
// stored here: it is a function of the dispatch cycle and the producers'
// final completion (readiness), computed once in fusedWake and written
// to the event log.
type fseq struct {
	complete    int32
	remoteAvail int32
	dispatch    int32
	pend        uint8 // producers unissued at dispatch, not yet issued (at most 3)
	prio        uint8 // scheduling priority (at most predictor.LoCLevels-1)
	cluster     uint8
	flags       uint8
}

// fusedRun is the packed engine's working set, pooled across runs and
// shared by the variants a SimulateVariants worker replays in turn.
type fusedRun struct {
	// st is NOT cleared between runs: fusedEnqueue writes a record whole
	// on first touch, dispatch is in order, and every reader of a record
	// sits behind a dispatch-cursor guard (or reads producers, which
	// dispatch before their consumers), so stale state from the previous
	// run is unreachable.
	st []fseq
	// Calendar wake ring: wring[c][ready&(fusedWakeRingSize-1)] holds the
	// seqs of cluster c maturing at cycle ready. Within a run every push
	// lands at least one cycle ahead and less than fusedWakeRingSize
	// cycles out (longer waits overflow to wfar), and the drain at cycle
	// t empties every bucket with ready <= t before any push of cycle t
	// lands, so two pending entries can never share a bucket with
	// different ready cycles. wringMin[c]/wfarMin[c] are the exact
	// earliest pending maturation (wakeNone when empty) — idleCycles
	// relies on exactness to bound its skips.
	wring    [][][]uint32
	wringCnt []int32
	wringMin []int64
	wfar     [][]uint64 // rare far-future wakes, keyed ready<<32|seq, unsorted
	wfarMin  []int64
	ready    [][]uint64 // per-cluster sorted list keyed prio<<32|seq
	// rdHead[c] is the start of cluster c's live ready window within
	// ready[c]: issued prefixes are dropped by advancing it (and
	// right-compacting rare FU-blocked survivors) instead of sliding
	// the whole tail left every cycle.
	rdHead []int32

	// Persistent merge scratch — written for [0:clusters) before use
	// every call, kept across calls so the arrays are never re-zeroed.
	mergeBudgets [MaxClusters]issueBudget
	mergeLists   [MaxClusters][]uint64
	mergeHeads   [MaxClusters]uint64
}

var fusedRunPool = sync.Pool{New: func() any { return new(fusedRun) }}

// getFusedRun returns a pooled fusedRun sized for n instructions and
// the widest cluster count it will replay; putFusedRun returns it.
func getFusedRun(n, clusters int) *fusedRun {
	fr := fusedRunPool.Get().(*fusedRun)
	fr.st = resize(fr.st, n)
	for cap(fr.wring) < clusters {
		fr.wring = append(fr.wring[:cap(fr.wring)], nil)
		fr.wringCnt = append(fr.wringCnt[:cap(fr.wringCnt)], 0)
		fr.wringMin = append(fr.wringMin[:cap(fr.wringMin)], 0)
		fr.wfar = append(fr.wfar[:cap(fr.wfar)], nil)
		fr.wfarMin = append(fr.wfarMin[:cap(fr.wfarMin)], 0)
		fr.ready = append(fr.ready[:cap(fr.ready)], nil)
		fr.rdHead = append(fr.rdHead[:cap(fr.rdHead)], 0)
	}
	fr.wring = fr.wring[:clusters]
	fr.wringCnt = fr.wringCnt[:clusters]
	fr.wringMin = fr.wringMin[:clusters]
	fr.wfar = fr.wfar[:clusters]
	fr.wfarMin = fr.wfarMin[:clusters]
	fr.ready = fr.ready[:clusters]
	fr.rdHead = fr.rdHead[:clusters]
	for c := range fr.wring {
		// Slots appended (or first exposed by the reslice) above start as
		// zero values; reset() establishes the list state and the
		// wringMin/wfarMin sentinels, but the bucket array must exist.
		if fr.wring[c] == nil {
			fr.wring[c] = make([][]uint32, fusedWakeRingSize)
		}
	}
	return fr
}

func putFusedRun(fr *fusedRun) { fusedRunPool.Put(fr) }

// reset restores the pre-run state: just the per-cluster lists — the
// packed records are first-touch initialized at dispatch (fusedEnqueue)
// instead of bulk-cleared, which saves streaming the whole array twice
// per run.
func (fr *fusedRun) reset() {
	for c := range fr.wring {
		if fr.wringCnt[c] != 0 {
			// Only reachable after an aborted run: a completed run
			// drains every bucket (and resets the mins) on its own.
			ring := fr.wring[c]
			for b := range ring {
				ring[b] = ring[b][:0]
			}
			fr.wringCnt[c] = 0
		}
		fr.wringMin[c] = wakeNone
		fr.wfar[c] = fr.wfar[c][:0]
		fr.wfarMin[c] = wakeNone
		fr.ready[c] = fr.ready[c][:0]
		fr.rdHead[c] = 0
	}
}

// fusedWakeRingSize is the calendar ring span in cycles; it must exceed
// the longest single wake distance (bounded by agen + L1 miss + the
// inter-cluster broadcast delay, all far below this) — pushes further
// out fall back to the wfar overflow list.
const fusedWakeRingSize = 256

// wakeNone is the "no pending maturation" sentinel for wringMin/wfarMin
// (above any reachable cycle; fusedCycleCap bounds real cycles).
const wakeNone = int64(1) << 62

// fusedPushWake adds seq (maturing at ready) to cluster c's wake ring.
func (m *Machine) fusedPushWake(c int, ready, seq int64) {
	fr := m.fr
	if ready-m.cycle < fusedWakeRingSize {
		b := ready & (fusedWakeRingSize - 1)
		fr.wring[c][b] = append(fr.wring[c][b], uint32(seq))
		fr.wringCnt[c]++
		if ready < fr.wringMin[c] {
			fr.wringMin[c] = ready
		}
		return
	}
	fr.wfar[c] = append(fr.wfar[c], uint64(ready)<<32|uint64(uint32(seq)))
	if ready < fr.wfarMin[c] {
		fr.wfarMin[c] = ready
	}
}

// fusedDrainWake matures every cluster-c wake entry with ready <= t into
// the ready list. Bucket order is push order, not seq order — sound
// because fusedInsertReady builds the same sorted list (unique keys) from
// any insertion order.
func (m *Machine) fusedDrainWake(c int, t int64) {
	fr := m.fr
	st := fr.st
	for fr.wringMin[c] <= t {
		cyc := fr.wringMin[c]
		b := cyc & (fusedWakeRingSize - 1)
		bucket := fr.wring[c][b]
		for _, seq := range bucket {
			m.fusedInsertReady(c, uint64(st[seq].prio)<<32|uint64(seq))
		}
		fr.wringCnt[c] -= int32(len(bucket))
		fr.wring[c][b] = bucket[:0]
		if fr.wringCnt[c] == 0 {
			fr.wringMin[c] = wakeNone
			break
		}
		// Pending entries all mature within fusedWakeRingSize cycles of
		// their push, so the next occupied bucket is at most a full lap
		// away and this scan terminates.
		for {
			cyc++
			if len(fr.wring[c][cyc&(fusedWakeRingSize-1)]) != 0 {
				break
			}
		}
		fr.wringMin[c] = cyc
	}
	if fr.wfarMin[c] <= t {
		far := fr.wfar[c]
		kept := far[:0]
		min := wakeNone
		for _, k := range far {
			if r := int64(k >> 32); r > t {
				if r < min {
					min = r
				}
				kept = append(kept, k)
				continue
			}
			seq := uint32(k)
			m.fusedInsertReady(c, uint64(st[seq].prio)<<32|uint64(seq))
		}
		fr.wfar[c] = kept
		fr.wfarMin[c] = min
	}
}

// fusedInsertReady inserts key into cluster c's sorted ready window
// (ready[c][rdHead[c]:]), shifting whichever side is cheaper: the gap
// the compacted prefix leaves below rdHead takes left-shifts for free.
func (m *Machine) fusedInsertReady(c int, key uint64) {
	fr := m.fr
	head := int(fr.rdHead[c])
	rl := fr.ready[c]
	act := rl[head:]
	lo, hi := 0, len(act)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if act[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if head > 0 && lo <= len(act)-lo {
		copy(rl[head-1:], rl[head:head+lo])
		rl[head-1+lo] = key
		fr.rdHead[c] = int32(head - 1)
		return
	}
	if head > len(act) {
		// More dropped prefix than live entries: slide the window to the
		// front, so the list stays bounded by the scheduling window
		// instead of growing with the run (amortized O(1) per insert).
		rl = rl[:copy(rl, act)]
		head = 0
		fr.rdHead[c] = 0
	}
	rl = append(rl, 0)
	act = rl[head:]
	copy(act[lo+1:], act[lo:])
	act[lo] = key
	fr.ready[c] = rl
}

// fusedIssue is the packed engine's issue phase: mature wake-ring
// entries into the per-cluster ready lists, merge-select under the
// width and FU budgets, compact issued prefixes.
func (m *Machine) fusedIssue() {
	fr := m.fr
	avail := 0
	for c := range m.clusters {
		if fr.wringMin[c] <= m.cycle || fr.wfarMin[c] <= m.cycle {
			m.fusedDrainWake(c, m.cycle)
		}
		rlen := len(fr.ready[c]) - int(fr.rdHead[c])
		if m.kern == nil {
			// Only SteerView consumers read readyCount; kernel-steered
			// replays never construct a view.
			m.readyCount[c] = rlen
		}
		avail += rlen
	}
	if avail == 0 {
		if m.dispatched > m.commitIdx || m.dispHead < int64(m.tr.Len()) {
			m.ilpAvail[0]++
		}
		return
	}
	var issued int
	if len(m.clusters) == 1 {
		issued = m.fusedIssueMergeMono()
	} else {
		issued = m.fusedIssueMerge(avail)
	}
	if issued > 0 {
		m.fusedCompactReadyPrefix()
	}
	bucket := avail
	if bucket > MaxILPBucket {
		bucket = MaxILPBucket
	}
	m.ilpAvail[bucket]++
	m.ilpIssued[bucket] += int64(issued)
}

// fusedIssueMerge walks the per-cluster sorted ready lists in global
// (prio, seq) order — always advancing the smallest head among clusters
// with issue width left — under the scan oracle's width and FU budgets:
// an FU-blocked head is skipped with the cursor advanced and its width
// slot preserved, and a width-exhausted cluster's remaining entries are
// skipped wholesale, exactly what the oracle's per-candidate checks do
// to them one by one. One uint64 compare orders two keys.
func (m *Machine) fusedIssueMerge(avail int) int {
	fr := m.fr
	nc := len(m.clusters)
	// Persistent merge scratch (nc <= MaxClusters by admission):
	// heads[c] caches cluster c's next key, or noHead once the cluster is
	// out of candidates or width, so the selection scan is compare-only.
	const noHead = ^uint64(0) // above any real key (prio<<32|seq < 2^48)
	budgets := &fr.mergeBudgets
	lists := &fr.mergeLists
	heads := &fr.mergeHeads
	var cursors [MaxClusters]int32
	widthLeft := 0
	for c := 0; c < nc; c++ {
		budgets[c] = issueBudget{m.cfg.IssuePerCluster, m.cfg.IntPerCluster, m.cfg.FPPerCluster, m.cfg.MemPerCluster}
		widthLeft += m.cfg.IssuePerCluster
		lists[c] = fr.ready[c][fr.rdHead[c]:]
		heads[c] = noHead
		if len(lists[c]) > 0 && budgets[c].width > 0 {
			heads[c] = lists[c][0]
		}
	}
	insts := m.tr.Insts
	issued := 0
	for widthLeft > 0 && avail > 0 {
		best, bestKey := -1, noHead
		for c := 0; c < nc; c++ {
			if k := heads[c]; k < bestKey {
				best, bestKey = c, k
			}
		}
		if best == -1 {
			break
		}
		cur := int(cursors[best]) + 1
		cursors[best] = int32(cur)
		if cur < len(lists[best]) {
			heads[best] = lists[best][cur]
		} else {
			heads[best] = noHead
		}
		avail-- // consumed from the merge's view, issued or FU-blocked
		seq := int64(uint32(bestKey))
		b := &budgets[best]
		switch insts[seq].Op.FU() {
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
		widthLeft--
		if b.width == 0 {
			heads[best] = noHead
		}
		m.fusedIssueOne(seq, best)
		issued++
	}
	for c := 0; c < nc; c++ {
		m.cursors[c] = int(cursors[c])
	}
	return issued
}

// fusedIssueMergeMono is the merge for a single cluster: the global
// (prio, seq) minimum is simply the next entry of the one sorted list,
// so selection is a linear walk under the same width and FU budgets.
func (m *Machine) fusedIssueMergeMono() int {
	rl := m.fr.ready[0][m.fr.rdHead[0]:]
	insts := m.tr.Insts
	b := issueBudget{m.cfg.IssuePerCluster, m.cfg.IntPerCluster, m.cfg.FPPerCluster, m.cfg.MemPerCluster}
	issued, cur := 0, 0
	for cur < len(rl) && b.width > 0 {
		seq := int64(uint32(rl[cur]))
		cur++
		switch insts[seq].Op.FU() {
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
		m.fusedIssueOne(seq, 0)
		issued++
	}
	m.cursors[0] = cur
	return issued
}

// fusedIssueOne is the oracle's issueOne on packed state, writing the
// same event fields at the same point, except readiness, which fusedWake
// wrote already. L1Miss is written unconditionally
// because an uncleared log may hold a stale true.
func (m *Machine) fusedIssueOne(seq int64, cluster int) {
	fr := m.fr
	fs := &fr.st[seq]

	in := &m.tr.Insts[seq]
	lat := int64(in.Op.Latency())
	l1miss := false
	if in.Op == isa.Load {
		accessLat, hit := m.l1.Access(in.Addr)
		l1miss = !hit
		lat = loadAgenCycles + int64(accessLat)
	} else if in.Op == isa.Store {
		m.l1.Access(in.Addr) // write-allocate; latency hidden by commit
	}
	complete := m.cycle + lat
	var remoteAvail int64
	if m.cfg.Clusters > 1 && (in.HasDst() || in.Op == isa.Store) {
		bcast := complete
		if m.cfg.BypassPerCluster > 0 {
			bcast = m.broadcastSlot(cluster, bcast)
		}
		remoteAvail = bcast + int64(m.cfg.FwdLatency)
	} else {
		remoteAvail = complete + int64(m.cfg.FwdLatency)
	}
	if remoteAvail >= fusedCycleCap {
		// Unreachable under Admit's worst-case bound; a panic beats
		// silently truncating a cycle into an int32.
		panic("machine: fused issue engine cycle overflow")
	}
	fs.complete = int32(complete)
	fs.remoteAvail = int32(remoteAvail)
	fs.flags |= fIssued
	ev := &m.events[seq]
	ev.Issue = m.cycle
	ev.Complete = complete
	ev.RemoteAvail = remoteAvail
	ev.L1Miss = l1miss

	if m.cfg.Clusters > 1 {
		// Global-value counting: a no-op on mono geometries (producer and
		// consumer clusters always match), so the walk is skipped there.
		myCl := fs.cluster
		off := m.graph.prodOff
		for _, p32 := range m.graph.prodIdx[off[seq]:off[seq+1]] {
			ps := &fr.st[p32]
			if ps.cluster != myCl && ps.flags&fGlobalCounted == 0 {
				ps.flags |= fGlobalCounted
				m.events[p32].markGlobalCounted()
				m.globalValues++
			}
		}
	}

	m.fusedWakeConsumers(seq)

	if seq == m.blockingBranch {
		m.fetchResume = complete + 1
		m.redirectFrom = seq
		m.blockingBranch = Unset
	}
	m.clusters[cluster].occ--
	m.lastIssuedFrom[cluster] = seq
	if m.kern == nil {
		m.pol.OnIssue(seq, cluster)
	}
}

// fusedWakeConsumers decrements the outstanding-producer count of every
// dispatched consumer of seq, walking the trace's static consumer list;
// consumers reaching zero have their (now final) readiness computed and
// join their cluster's wake ring. A consumer not yet dispatched is
// skipped — its fusedEnqueue will see this producer's completion and not
// count it — and a dispatched consumer counted this producer in pend,
// because issue (phase order) precedes dispatch within a cycle. A
// consumer naming seq twice is in the list twice and is decremented
// twice, mirroring the double count taken at dispatch.
func (m *Machine) fusedWakeConsumers(seq int64) {
	fr := m.fr
	off := m.graph.consOff
	dispHead := int32(m.dispHead)
	for _, w := range m.graph.consIdx[off[seq]:off[seq+1]] {
		if w >= dispHead {
			// Not yet in a window — and since consumer lists are in
			// program order and dispatch is in order, neither is any
			// later consumer (their packed records are still last
			// run's, another reason not to look).
			break
		}
		ws := &fr.st[w]
		ws.pend--
		if ws.pend == 0 {
			m.fusedWake(int64(w))
		}
	}
}

// fusedWake records the now-final readiness of seq, whose producers
// have all issued, in the event log and pushes seq onto its cluster's
// wake ring at its ready cycle.
func (m *Machine) fusedWake(seq int64) {
	ev := &m.events[seq]
	ev.Ready, ev.CritProducer, ev.CritProducerRemote = m.readiness(seq)
	m.fusedPushWake(int(m.fr.st[seq].cluster), ev.Ready, seq)
}

// readiness is the oracle's readyAt on the packed state: the cycle seq's
// operands are all available at its cluster, the binding producer
// (Unset when dispatch bounds it) and whether that operand crossed
// clusters. Every producer must have issued; from then on the answer
// never changes, so fusedWake asks once, for the wake ring and the event
// log both.
func (m *Machine) readiness(seq int64) (ready, crit int64, remote bool) {
	st := m.fr.st
	fs := &st[seq]
	ready, crit = int64(fs.dispatch)+1, Unset
	off := m.graph.prodOff
	for _, p32 := range m.graph.prodIdx[off[seq]:off[seq+1]] {
		ps := &st[p32]
		avail := ps.complete
		rem := ps.cluster != fs.cluster
		if rem {
			avail = ps.remoteAvail
		}
		if int64(avail) > ready || (int64(avail) == ready && crit == Unset) {
			ready, crit, remote = int64(avail), int64(p32), rem
		}
	}
	return ready, crit, remote
}

// fusedEnqueue registers a freshly dispatched instruction: it records
// the dispatch-time facts (cycle, cluster, priority) in the packed state
// and either starts waiting on its unissued producers or, when every
// producer has already issued, goes straight onto its cluster's wake
// ring. No waiters are registered: fusedWakeConsumers walks the static
// consumer lists. The pend count comes from the steering walk of this
// same dispatch iteration (m.steerPend) — every steering path records
// it, and no issue can intervene between steer and enqueue.
func (m *Machine) fusedEnqueue(seq int64, cluster int, prio uint16) {
	fr := m.fr
	fs := &fr.st[seq]
	// First touch of this record in the run: write it whole (st carries
	// the previous run's state; see the fusedRun.st comment).
	*fs = fseq{complete: -1, remoteAvail: -1, dispatch: int32(m.cycle),
		prio: uint8(prio), cluster: uint8(cluster)}
	if m.steerPend == 0 {
		m.fusedWake(seq)
		return
	}
	fs.pend = uint8(m.steerPend)
}

// fusedCompactReadyPrefix removes just-issued keys from the ready-window
// prefixes the merge consumed: everything issued this cycle lies before
// the per-cluster merge cursors. The consumed prefix is dropped by
// advancing rdHead; FU-blocked survivors are right-compacted into the
// prefix end (order-preserving), so the untouched tail never moves.
func (m *Machine) fusedCompactReadyPrefix() {
	fr := m.fr
	st := fr.st
	for c := range m.clusters {
		cut := m.cursors[c]
		if cut == 0 {
			continue
		}
		head := int(fr.rdHead[c])
		rl := fr.ready[c]
		w := head + cut
		for i := w - 1; i >= head; i-- {
			if st[uint32(rl[i])].flags&fIssued == 0 {
				w--
				rl[w] = rl[i]
			}
		}
		fr.rdHead[c] = int32(w)
	}
}

// steerKernelPacked is the inlined dispatch-steering fast path: it
// replicates gatherProducers' dedup, the steer package's first-maximum
// scoring and tag derivation, the stall-over-steer hold, and
// dependence-based placement — with no producer slice, no map, and no
// interface calls, reading producer state from the packed arrays.
// Producers are always dispatched before their consumer reaches the
// steering stage (dispatch is in order), so every packed field it reads
// is valid. An instruction has at most three producers (two register
// sources and a forwarding store), so dedup and the distinct-cluster
// (dyadic) test run over a fixed-size array.
func (m *Machine) steerKernelPacked(seq int64) Decision {
	if m.cfg.Clusters == 1 {
		return m.steerKernelMono(seq)
	}
	k := m.kern
	fr := m.fr
	var (
		seen      [3]int64
		nseen     int
		bestScore = -1
		bestCl    int
		ok        bool
		firstCl   = -1
		multi     bool
	)
	group := m.cfg.GroupSteering
	pend := int32(0)
	off := m.graph.prodOff
	for _, p32 := range m.graph.prodIdx[off[seq]:off[seq+1]] {
		p := int64(p32)
		ps := &fr.st[p]
		// Piggyback the dispatch-pend count (unissued producers, raw
		// multiplicity like the waiter scheme's) on this walk so
		// fusedEnqueue need not redo it; no issue happens between the
		// steer and enqueue of one instruction, so the count is the one
		// enqueue would see.
		if ps.complete < 0 {
			pend++
		}
		dup := false
		for i := 0; i < nseen; i++ {
			if seen[i] == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[nseen] = p
		nseen++
		if ps.complete >= 0 && int64(ps.remoteAvail) <= m.cycle {
			continue // not outstanding: collocation no longer matters
		}
		if group && int64(ps.dispatch) == m.cycle {
			continue // placed this very cycle: unseen by a group-steering circuit
		}
		cl := int(ps.cluster)
		if firstCl < 0 {
			firstCl = cl
		} else if cl != firstCl {
			multi = true
		}
		s := 0
		switch k.Score {
		case KernelScoreBinary:
			if m.binary != nil && m.binary.Predict(m.tr.Insts[p].PC) {
				s = 1
			}
		case KernelScoreLoC:
			if m.loc != nil {
				s = m.loc.Level(m.tr.Insts[p].PC)
			}
		}
		if s > bestScore {
			bestScore, bestCl, ok = s, cl, true
		}
	}
	m.steerPend = pend
	tag := SteerNoPref
	if ok {
		if multi {
			tag = SteerDyadic
		} else {
			tag = SteerLocal
		}
	}

	if k.Stall && ok && m.kernOcc(bestCl) >= m.cfg.WindowPerCluster {
		frac := 0.0
		if m.loc != nil {
			frac = m.loc.Frac(m.tr.Insts[seq].PC)
		}
		if frac >= k.StallThreshold {
			return Decision{Cluster: bestCl, Stall: true, Tag: tag}
		}
	}

	if !ok {
		lb, space := m.kernLeastLoaded()
		if !space {
			return Decision{Cluster: 0, Stall: true, Tag: SteerNoPref}
		}
		return Decision{Cluster: lb, Tag: SteerNoPref}
	}
	if m.kernOcc(bestCl) < m.cfg.WindowPerCluster {
		return Decision{Cluster: bestCl, Tag: tag}
	}
	lb, space := m.kernLeastLoaded()
	if !space {
		return Decision{Cluster: bestCl, Stall: true, Tag: tag}
	}
	return Decision{Cluster: lb, Tag: SteerLoadBalanced}
}

// steerKernelMono is the single-cluster kernel: with one cluster the
// score cannot change the placement (every producer lives in cluster 0
// and dyadic spread is impossible), so the decision reduces to whether
// any producer is still outstanding (the tag) and whether the window
// has space (the stall) — plus the stall-over-steer hold, which with a
// full window returns the same stall decision either way. This is
// provably the generic kernel's output for Clusters == 1; the
// differential battery checks it on every 1-cluster kernel variant.
func (m *Machine) steerKernelMono(seq int64) Decision {
	fr := m.fr
	group := m.cfg.GroupSteering
	outstanding := false
	pend := int32(0)
	off := m.graph.prodOff
	for _, p32 := range m.graph.prodIdx[off[seq]:off[seq+1]] {
		ps := &fr.st[p32]
		// Same piggybacked pend count as steerKernelPacked: one walk
		// serves both the steering question and fusedEnqueue.
		if ps.complete < 0 {
			pend++
		}
		if outstanding {
			continue
		}
		if ps.complete >= 0 && int64(ps.remoteAvail) <= m.cycle {
			continue
		}
		if group && int64(ps.dispatch) == m.cycle {
			continue
		}
		outstanding = true
	}
	m.steerPend = pend
	tag := SteerNoPref
	if outstanding {
		tag = SteerLocal
	}
	if m.kernOcc(0) < m.cfg.WindowPerCluster {
		return Decision{Cluster: 0, Tag: tag}
	}
	// Window full: the generic kernel stalls here no matter whether the
	// stall-over-steer hold fires (least-loaded has no space either).
	return Decision{Cluster: 0, Stall: true, Tag: tag}
}

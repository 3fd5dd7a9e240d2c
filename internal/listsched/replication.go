package listsched

import (
	"container/heap"
	"fmt"

	"clustersim/internal/trace"
)

// Instruction replication (footnote 4 of the paper): statically-scheduled
// clustered machines sometimes re-execute a producer on a consumer's
// cluster instead of forwarding its value (Aletà et al.; Narayanasamy et
// al.). The paper conjectures replication "does not appear to be
// necessary for dynamic machines" because its idealized schedules already
// reach monolithic performance. RunReplicated makes that claim testable:
// it extends the oracle list scheduler with single-level replication and
// reports how much makespan it buys.

// Replica records one re-execution of a producer on another cluster.
type Replica struct {
	Seq      int64 // the replicated instruction
	Cluster  int16
	Start    int64
	Complete int64
}

// ReplicatedSchedule augments Schedule with replica placements: a
// consumer on a replica's cluster may read the value at the replica's
// completion rather than waiting for the forwarded original.
type ReplicatedSchedule struct {
	Schedule
	Replicas []Replica
	// availAt[seq] holds per-cluster value availability overrides
	// introduced by replicas (nil for instructions never replicated).
	availAt map[int64][]int64
	fwd     int
}

// AvailAt returns the cycle instruction seq's value is usable on cluster
// k, accounting for replicas.
func (s *ReplicatedSchedule) AvailAt(seq int64, k int) int64 {
	if overrides := s.availAt[seq]; overrides != nil && overrides[k] >= 0 {
		return overrides[k]
	}
	avail := s.Complete[seq]
	if int(s.Cluster[seq]) != k {
		avail += int64(s.fwd)
	}
	return avail
}

// RunReplicated list-schedules like Run but may replicate a producer on
// the consumer's cluster when re-execution beats forwarding. Replication
// is single-level in what it creates — it never replicates a producer's
// producer to speed a replica up — but not in what a replica reads: a
// replica reads each operand at its AvailAt on the replica's cluster,
// which is an earlier replica's completion when that operand was already
// replicated there, and otherwise the original's completion (plus
// forwarding from another cluster). Unlike Run, it picks the strictly
// earliest cluster, with no tie-break toward the latest producer.
// The pooled Scheduler's ScheduleReplicated is its production twin.
func RunReplicated(in Input, cfg Config, pri Priority) (*ReplicatedSchedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clusters < 1 || cfg.Width < 1 || cfg.Int < 1 || cfg.FP < 1 || cfg.Mem < 1 || cfg.Fwd < 0 {
		return nil, fmt.Errorf("listsched: invalid config %+v", cfg)
	}
	tr := in.Trace
	n := tr.Len()
	s := &ReplicatedSchedule{
		Schedule: Schedule{
			Start:    make([]int64, n),
			Complete: make([]int64, n),
			Cluster:  make([]int16, n),
		},
		availAt: map[int64][]int64{},
	}
	s.fwd = cfg.Fwd
	res := make([]clusterRes, cfg.Clusters)
	for k := range res {
		res[k].width.cap = uint8(cfg.Width)
		res[k].integer.cap = uint8(cfg.Int)
		res[k].fp.cap = uint8(cfg.FP)
		res[k].mem.cap = uint8(cfg.Mem)
	}

	pending := make([]int32, n)
	firstEdge := make([]int32, n)
	lastEdge := make([]int32, n)
	nextEdge := make([]int32, 3*n)
	for i := range firstEdge {
		firstEdge[i] = trace.None
		lastEdge[i] = trace.None
	}
	for i := range nextEdge {
		nextEdge[i] = trace.None
	}
	var prodBuf, pprodBuf []int32
	for i := 0; i < n; i++ {
		prodBuf = dedupProducers(tr.Producers(i, prodBuf[:0]))
		for slot, p := range prodBuf {
			e := int32(3*i + slot)
			if firstEdge[p] == trace.None {
				firstEdge[p] = e
			} else {
				nextEdge[lastEdge[p]] = e
			}
			lastEdge[p] = e
		}
	}

	var shift int64
	scheduled := 0
	h := &readyHeap{}
	regionStart := 0
	for regionStart < n {
		regionEnd := regionStart
		for regionEnd < n {
			regionEnd++
			if in.Mispredicted[regionEnd-1] {
				break
			}
		}
		*h = (*h)[:0]
		for i := regionStart; i < regionEnd; i++ {
			pending[i] = 0
			prodBuf = dedupProducers(tr.Producers(i, prodBuf[:0]))
			for _, p := range prodBuf {
				if int(p) >= regionStart {
					pending[i]++
				}
			}
			if pending[i] == 0 {
				heap.Push(h, readyItem{int64(i), pri.Key(int64(i), tr.Insts[i].PC)})
			}
		}
		for h.Len() > 0 {
			it := heap.Pop(h).(readyItem)
			i := it.seq
			in0 := &tr.Insts[i]
			prodBuf = dedupProducers(tr.Producers(int(i), prodBuf[:0]))

			// Best placement considering replica-adjusted availability.
			bestT := int64(1) << 62
			bestK := 0
			for k := 0; k < cfg.Clusters; k++ {
				t := in.Release[i] + shift
				for _, p := range prodBuf {
					if avail := s.AvailAt(int64(p), k); avail > t {
						t = avail
					}
				}
				for !res[k].fits(in0.Op, t) {
					t++
				}
				if t < bestT {
					bestT = t
					bestK = k
				}
			}

			// Consider replicating the binding remote producers onto
			// bestK: a replica helps when re-executing the producer from
			// its own (forwarded) operands completes before the original
			// value would arrive. Loads and stores are not replicated
			// (memory ops are not re-executable in this model).
			improved := true
			for improved {
				improved = false
				for _, p32 := range prodBuf {
					p := int64(p32)
					avail := s.AvailAt(p, bestK)
					if avail < bestT || int(s.Cluster[p]) == bestK {
						continue // not binding, or already local
					}
					pop := &tr.Insts[p]
					if pop.Op.IsMem() {
						continue
					}
					// Earliest re-execution of p on bestK.
					rt := in.Release[p] + shift
					pprodBuf = tr.Producers(int(p), pprodBuf[:0])
					for _, q := range pprodBuf {
						if qa := s.AvailAt(int64(q), bestK); qa > rt {
							rt = qa
						}
					}
					for !res[bestK].fits(pop.Op, rt) {
						rt++
					}
					rc := rt + in.Latency[p]
					if rc >= avail {
						continue // forwarding is at least as fast
					}
					res[bestK].take(pop.Op, rt)
					s.Replicas = append(s.Replicas, Replica{Seq: p, Cluster: int16(bestK), Start: rt, Complete: rc})
					ov := s.availAt[p]
					if ov == nil {
						ov = make([]int64, cfg.Clusters)
						for c := range ov {
							ov[c] = -1
						}
						s.availAt[p] = ov
					}
					if ov[bestK] < 0 || rc < ov[bestK] {
						ov[bestK] = rc
					}
					improved = true
				}
				if improved {
					// Recompute the start on bestK with replica help.
					t := in.Release[i] + shift
					for _, p := range prodBuf {
						if avail := s.AvailAt(int64(p), bestK); avail > t {
							t = avail
						}
					}
					for !res[bestK].fits(in0.Op, t) {
						t++
					}
					bestT = t
				}
			}

			s.Start[i] = bestT
			s.Cluster[i] = int16(bestK)
			s.Complete[i] = bestT + in.Latency[i]
			res[bestK].take(in0.Op, bestT)
			if s.Complete[i] > s.Makespan {
				s.Makespan = s.Complete[i]
			}
			for _, p := range prodBuf {
				if int(s.Cluster[p]) != bestK {
					s.CrossEdges++
					if in0.NumSrcs() == 2 {
						s.DyadicCross++
					}
				}
			}
			scheduled++

			for e := firstEdge[i]; e != trace.None; e = nextEdge[e] {
				c := e / 3
				if int(c) >= regionEnd {
					continue
				}
				pending[c]--
				if pending[c] == 0 {
					heap.Push(h, readyItem{int64(c), pri.Key(int64(c), tr.Insts[c].PC)})
				}
			}
		}
		b := regionEnd - 1
		if in.Mispredicted[b] {
			if excess := s.Complete[b] - (in.Complete[b] + shift); excess > 0 {
				shift += excess
			}
		}
		regionStart = regionEnd
	}
	if scheduled != n {
		return nil, fmt.Errorf("listsched: scheduled %d of %d (dependence cycle?)", scheduled, n)
	}
	return s, nil
}

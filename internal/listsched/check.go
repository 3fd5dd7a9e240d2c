package listsched

import "fmt"

// Check verifies that s is a legal, consistently-accounted schedule of
// in onto cfg, independently of which scheduler produced it:
//
//   - the region shift is re-derived from the schedule itself and every
//     start respects release + shift;
//   - completion times equal start + observed latency;
//   - cluster assignments are in range;
//   - every operand is available at start, paying cfg.Fwd for
//     cross-cluster producers;
//   - no (cluster, cycle) exceeds the issue width or its per-class
//     functional-unit limit;
//   - Makespan, CrossEdges and DyadicCross match an independent
//     per-value recount.
//
// It is intentionally simple and allocation-heavy — a verification
// oracle for tests and fuzzing, not a hot path.
func Check(in Input, cfg Config, s *Schedule) error {
	return check(in, cfg, s, nil)
}

// CheckReplicated is Check for a replicated schedule. Replicas share
// their cluster's issue width and functional units with the originals,
// and an operand is available on a cluster at the earlier of the
// (forwarded) original and the earliest replica completing there. On
// top of Check's invariants it verifies that every replica
//
//   - re-executes a non-memory instruction on a cluster other than the
//     original's;
//   - starts no earlier than its instruction's release plus the shift of
//     the instruction's region, with its own operands available;
//   - completes at start + observed latency;
//
// and that s.AvailAt, which consumers read through, reports exactly the
// replica-adjusted availability of the recount. Makespan and the
// cross-edge counts stay per original placement, as RunReplicated
// accounts them.
func CheckReplicated(in Input, cfg Config, s *ReplicatedSchedule) error {
	return check(in, cfg, &s.Schedule, s)
}

// check verifies s, and with rs non-nil (rs.Schedule is s) its replicas.
func check(in Input, cfg Config, s *Schedule, rs *ReplicatedSchedule) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if cfg.Clusters < 1 || cfg.Width < 1 || cfg.Int < 1 || cfg.FP < 1 || cfg.Mem < 1 || cfg.Fwd < 0 {
		return fmt.Errorf("listsched: invalid config %+v", cfg)
	}
	tr := in.Trace
	n := tr.Len()
	if len(s.Start) != n || len(s.Complete) != n || len(s.Cluster) != n {
		return fmt.Errorf("listsched: schedule sized %d/%d/%d for %d instructions",
			len(s.Start), len(s.Complete), len(s.Cluster), n)
	}

	type slot struct {
		cluster int16
		cycle   int64
	}
	width := map[slot]int{}
	fus := map[slot]map[int]int{}
	limits := [lanesPer]int{laneWidth: cfg.Width, laneInt: cfg.Int, laneFP: cfg.FP, laneMem: cfg.Mem}

	// bySeq indexes the replicas; avail is an operand's availability on
	// cluster k, improved by any replica there.
	bySeq := map[int64][]Replica{}
	if rs != nil {
		for _, r := range rs.Replicas {
			if r.Seq < 0 || r.Seq >= int64(n) || r.Cluster < 0 || int(r.Cluster) >= cfg.Clusters {
				return fmt.Errorf("listsched: replica of inst %d on cluster %d out of range", r.Seq, r.Cluster)
			}
			bySeq[r.Seq] = append(bySeq[r.Seq], r)
		}
	}
	avail := func(p int64, k int16) int64 {
		a := s.Complete[p]
		if s.Cluster[p] != k {
			a += int64(cfg.Fwd)
		}
		for _, r := range bySeq[p] {
			if r.Cluster == k && r.Complete < a {
				a = r.Complete
			}
		}
		return a
	}

	var prodBuf []int32
	var shift, maxComplete, cross, dyadic int64
	regionShift := make([]int64, n)
	lo := 0
	for lo < n {
		re := lo
		for re < n {
			re++
			if in.Mispredicted[re-1] {
				break
			}
		}
		for i := lo; i < re; i++ {
			regionShift[i] = shift
			if s.Start[i] < in.Release[i]+shift {
				return fmt.Errorf("listsched: inst %d starts at %d before release %d + shift %d",
					i, s.Start[i], in.Release[i], shift)
			}
			if s.Complete[i] != s.Start[i]+in.Latency[i] {
				return fmt.Errorf("listsched: inst %d completes at %d, want start %d + latency %d",
					i, s.Complete[i], s.Start[i], in.Latency[i])
			}
			if s.Cluster[i] < 0 || int(s.Cluster[i]) >= cfg.Clusters {
				return fmt.Errorf("listsched: inst %d on cluster %d of %d", i, s.Cluster[i], cfg.Clusters)
			}
			if s.Complete[i] > maxComplete {
				maxComplete = s.Complete[i]
			}
			inst := &tr.Insts[i]
			prodBuf = dedupProducers(tr.Producers(i, prodBuf[:0]))
			for _, p := range prodBuf {
				if s.Cluster[p] != s.Cluster[i] {
					cross++
					if inst.NumSrcs() == 2 {
						dyadic++
					}
				}
				if a := avail(int64(p), s.Cluster[i]); s.Start[i] < a {
					return fmt.Errorf("listsched: inst %d starts at %d before operand from %d available at %d",
						i, s.Start[i], p, a)
				}
			}
			k := slot{s.Cluster[i], s.Start[i]}
			width[k]++
			if fus[k] == nil {
				fus[k] = map[int]int{}
			}
			fus[k][fuClass(inst.Op)]++
		}
		b := re - 1
		if in.Mispredicted[b] {
			if excess := s.Complete[b] - (in.Complete[b] + shift); excess > 0 {
				shift += excess
			}
		}
		lo = re
	}
	if rs != nil {
		for _, r := range rs.Replicas {
			op := tr.Insts[r.Seq].Op
			if op.IsMem() {
				return fmt.Errorf("listsched: memory op %d was replicated", r.Seq)
			}
			if r.Cluster == s.Cluster[r.Seq] {
				return fmt.Errorf("listsched: replica of %d on its own cluster %d", r.Seq, r.Cluster)
			}
			if r.Complete != r.Start+in.Latency[r.Seq] {
				return fmt.Errorf("listsched: replica of %d completes at %d, want start %d + latency %d",
					r.Seq, r.Complete, r.Start, in.Latency[r.Seq])
			}
			if r.Start < in.Release[r.Seq]+regionShift[r.Seq] {
				return fmt.Errorf("listsched: replica of %d starts at %d before release %d + shift %d",
					r.Seq, r.Start, in.Release[r.Seq], regionShift[r.Seq])
			}
			for _, q := range dedupProducers(tr.Producers(int(r.Seq), prodBuf[:0])) {
				if a := avail(int64(q), r.Cluster); r.Start < a {
					return fmt.Errorf("listsched: replica of %d starts at %d before operand from %d available at %d",
						r.Seq, r.Start, q, a)
				}
			}
			k := slot{r.Cluster, r.Start}
			width[k]++
			if fus[k] == nil {
				fus[k] = map[int]int{}
			}
			fus[k][fuClass(op)]++
		}
		for seq := range bySeq {
			for k := 0; k < cfg.Clusters; k++ {
				if got, want := rs.AvailAt(seq, k), avail(seq, int16(k)); got != want {
					return fmt.Errorf("listsched: inst %d reads as available on cluster %d at %d, replicas give %d",
						seq, k, got, want)
				}
			}
		}
	}

	for k, used := range width {
		if used > cfg.Width {
			return fmt.Errorf("listsched: cluster %d cycle %d issues %d > width %d",
				k.cluster, k.cycle, used, cfg.Width)
		}
	}
	for k, classes := range fus {
		for class, used := range classes {
			if used > limits[class] {
				return fmt.Errorf("listsched: cluster %d cycle %d uses %d class-%d units > %d",
					k.cluster, k.cycle, used, class, limits[class])
			}
		}
	}
	if s.Makespan != maxComplete {
		return fmt.Errorf("listsched: makespan %d, recounted %d", s.Makespan, maxComplete)
	}
	if s.CrossEdges != cross || s.DyadicCross != dyadic {
		return fmt.Errorf("listsched: cross/dyadic %d/%d, recounted %d/%d",
			s.CrossEdges, s.DyadicCross, cross, dyadic)
	}
	return nil
}

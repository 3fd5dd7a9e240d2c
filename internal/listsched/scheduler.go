package listsched

import (
	"fmt"
	"reflect"
	"sync"

	"clustersim/internal/isa"
)

// Variant is one (config, priority) combination to schedule. The
// forwarding latency rides in Config.Fwd, so a fwd-latency sweep is just
// variants whose configs differ in that field.
type Variant struct {
	Config Config
	Pri    Priority
	// Order, when set, is the issue order Pri pops over the batch's
	// Input, as an earlier batch's PoppedOrder returned it: the variant
	// is placed along it, no heap is popped for it, and Pri is not read.
	Order []int32
}

// Scheduler is the pooled, batched fast path for the idealized study.
// It produces schedules byte-identical to Run and RunReplicated (the
// retained oracles) in two steps. The ready-heap pop order depends only
// on the priority keys, the dependence structure and the region split —
// a consumer becomes ready when its last intra-region producer pops, and
// nothing in that rule reads a time — so issueOrder walks the heap once
// per distinct priority of a batch, and place (placeReplicated for
// replicated variants) then runs once per config along that shared
// order, booking bitmap resource lanes that find the next free issue
// slot by word scan instead of probing cycle by cycle. An order depends
// on nothing else, so a caller that keeps one (PoppedOrder) can hand it
// to later batches over the same Input (Variant.Order), which then pop
// nothing for that priority.
//
// Priorities must be pure functions of (seq, pc): keys are evaluated
// once per instruction per distinct priority, not once per heap push as
// the oracles do, so a stateful Priority would diverge. Variants whose
// Pri values compare equal share one issue order; a Pri of a
// non-comparable type gets an order of its own.
//
// Obtain with NewScheduler, return with Recycle; a recycled Scheduler
// reuses all internal state, so steady-state batches allocate only the
// returned schedules.
type Scheduler struct {
	// Built once per batch by prepare.
	n        int
	prodOff  []int32 // deduped producer CSR: producers of i are prodIdx[prodOff[i]:prodOff[i+1]]
	prodIdx  []int32
	consOff  []int32 // reverse (consumer) CSR, each list in ascending consumer order
	consIdx  []int32
	regions  []int32 // end index of each scheduling region
	pendBase []int32 // count of intra-region producers per instruction
	fu       []uint8 // bitLane index of each instruction's functional unit
	dyadic   []bool  // NumSrcs() == 2 (the convergent-dataflow indicator)
	mem      []bool  // memory ops, which are never replicated

	// Issue orders popped by the batch, one n-long window per distinct
	// priority of the variants without an Order; variant j places along
	// window group[j], or along its own Order when group[j] is -1.
	orders []int32
	group  []int

	// Per-order and per-placement state.
	keys     []int64
	pending  []int32
	heap     schedHeap
	lanes    []bitLane
	override []int64 // replicated placement: [seq*clusters+k] replica-backed availability, 0 = none

	scratch []int32 // producer buffer for trace.Producers
	deg     []int32 // consumer out-degree / CSR fill cursor
}

var schedulerPool = sync.Pool{New: func() any { return new(Scheduler) }}

// NewScheduler returns a (possibly recycled) Scheduler.
func NewScheduler() *Scheduler { return schedulerPool.Get().(*Scheduler) }

// Recycle returns the Scheduler to the pool. The caller must not use s
// afterwards; Schedules returned earlier remain valid (their arrays are
// never pooled).
func (s *Scheduler) Recycle() { schedulerPool.Put(s) }

// ScheduleVariants schedules in once per variant, sharing the dependence
// build across all of them and each issue order across the variants of
// one priority. Results are positionally aligned with variants and
// byte-identical to Run(in, v.Config, v.Pri) for each.
func (s *Scheduler) ScheduleVariants(in Input, variants []Variant) ([]*Schedule, error) {
	if err := s.batch(in, variants); err != nil {
		return nil, err
	}
	scheds := s.newSchedules(len(variants))
	out := make([]*Schedule, len(variants))
	for j, v := range variants {
		s.place(in, v.Config, s.order(j, v), &scheds[j])
		out[j] = &scheds[j]
	}
	return out, nil
}

// ScheduleReplicated is ScheduleVariants for the replicating scheduler:
// results are byte-identical to RunReplicated(in, v.Config, v.Pri),
// replicas and availability overrides included.
func (s *Scheduler) ScheduleReplicated(in Input, variants []Variant) ([]*ReplicatedSchedule, error) {
	if err := s.batch(in, variants); err != nil {
		return nil, err
	}
	scheds := s.newSchedules(len(variants))
	rscheds := make([]ReplicatedSchedule, len(variants))
	out := make([]*ReplicatedSchedule, len(variants))
	for j, v := range variants {
		rs := &rscheds[j]
		rs.Schedule = scheds[j]
		s.placeReplicated(in, v.Config, s.order(j, v), rs)
		out[j] = rs
	}
	return out, nil
}

// Schedule is the single-variant convenience wrapper.
func (s *Scheduler) Schedule(in Input, cfg Config, pri Priority) (*Schedule, error) {
	out, err := s.ScheduleVariants(in, []Variant{{Config: cfg, Pri: pri}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// newSchedules allocates m schedules over one backing allocation per
// array kind; each slices a disjoint full-capacity window, so results
// stay valid after Recycle.
func (s *Scheduler) newSchedules(m int) []Schedule {
	n := s.n
	i64 := make([]int64, 2*n*m)
	i16 := make([]int16, n*m)
	scheds := make([]Schedule, m)
	for j := range scheds {
		sc := &scheds[j]
		sc.Start = i64[2*j*n : (2*j+1)*n : (2*j+1)*n]
		sc.Complete = i64[(2*j+1)*n : (2*j+2)*n : (2*j+2)*n]
		sc.Cluster = i16[j*n : (j+1)*n : (j+1)*n]
	}
	return scheds
}

// batch validates the variants, builds the dependence structure of in
// and pops one issue order per distinct priority of the variants that
// bring no Order.
func (s *Scheduler) batch(in Input, variants []Variant) error {
	for _, v := range variants {
		cfg := v.Config
		if cfg.Clusters < 1 || cfg.Width < 1 || cfg.Int < 1 || cfg.FP < 1 || cfg.Mem < 1 || cfg.Fwd < 0 {
			return fmt.Errorf("listsched: invalid config %+v", cfg)
		}
	}
	if err := s.prepare(in); err != nil {
		return err
	}
	s.group = s.group[:0]
	var pris []Priority
	for _, v := range variants {
		if v.Order != nil {
			if len(v.Order) != s.n {
				return fmt.Errorf("listsched: issue order of %d instructions for an input of %d", len(v.Order), s.n)
			}
			s.group = append(s.group, -1)
			continue
		}
		g := len(pris)
		for h, p := range pris {
			if samePriority(p, v.Pri) {
				g = h
				break
			}
		}
		if g == len(pris) {
			pris = append(pris, v.Pri)
		}
		s.group = append(s.group, g)
	}
	s.orders = growI32(s.orders, len(pris)*s.n)
	for g, pri := range pris {
		if err := s.issueOrder(in, pri, s.orders[g*s.n:(g+1)*s.n]); err != nil {
			return err
		}
	}
	return nil
}

// order returns the issue order variant j, v, places along.
func (s *Scheduler) order(j int, v Variant) []int32 {
	if v.Order != nil {
		return v.Order
	}
	return s.PoppedOrder(j)
}

// PoppedOrder returns the issue order the last batch popped for its
// variant j, or nil when that variant brought its own Order. The slice
// is the Scheduler's, valid until its next batch or Recycle: copy it to
// keep it.
func (s *Scheduler) PoppedOrder(j int) []int32 {
	g := s.group[j]
	if g < 0 {
		return nil
	}
	return s.orders[g*s.n : (g+1)*s.n]
}

// samePriority reports whether a and b are interchangeable for ordering:
// equal values of one comparable type (comparing non-comparable dynamic
// types would panic).
func samePriority(a, b Priority) bool {
	ta := reflect.TypeOf(a)
	return ta == reflect.TypeOf(b) && ta.Comparable() && a == b
}

// prepare builds the Input-dependent state: deduped producer CSR, the
// reverse consumer CSR, the region split, intra-region readiness counts,
// and per-instruction functional-unit classes.
func (s *Scheduler) prepare(in Input) error {
	if err := in.Validate(); err != nil {
		return err
	}
	tr := in.Trace
	n := tr.Len()
	s.n = n

	s.prodOff = growI32(s.prodOff, n+1)
	s.prodIdx = s.prodIdx[:0]
	s.deg = growI32(s.deg, n)
	clear(s.deg)
	s.fu = growU8(s.fu, n)
	s.dyadic = growBool(s.dyadic, n)
	s.mem = growBool(s.mem, n)
	for i := 0; i < n; i++ {
		s.prodOff[i] = int32(len(s.prodIdx))
		s.scratch = dedupProducers(tr.Producers(i, s.scratch[:0]))
		for _, p := range s.scratch {
			s.prodIdx = append(s.prodIdx, p)
			s.deg[p]++
		}
		inst := &tr.Insts[i]
		s.fu[i] = uint8(fuClass(inst.Op))
		s.dyadic[i] = inst.NumSrcs() == 2
		s.mem[i] = inst.Op.IsMem()
	}
	s.prodOff[n] = int32(len(s.prodIdx))

	// Reverse CSR. Filling by ascending consumer keeps each producer's
	// consumer list sorted, which issueOrder relies on to stop early at
	// the region boundary.
	s.consOff = growI32(s.consOff, n+1)
	off := int32(0)
	for i := 0; i < n; i++ {
		s.consOff[i] = off
		off += s.deg[i]
		s.deg[i] = s.consOff[i] // becomes the fill cursor
	}
	s.consOff[n] = off
	s.consIdx = growI32(s.consIdx, int(off))
	for c := 0; c < n; c++ {
		for _, p := range s.prodIdx[s.prodOff[c]:s.prodOff[c+1]] {
			s.consIdx[s.deg[p]] = int32(c)
			s.deg[p]++
		}
	}

	// Region split and intra-region producer counts. Both depend only on
	// Mispredicted and the dependence structure, so every issue order
	// starts from the same pendBase.
	s.regions = s.regions[:0]
	s.pendBase = growI32(s.pendBase, n)
	rs := 0
	for rs < n {
		re := rs
		for re < n {
			re++
			if in.Mispredicted[re-1] {
				break
			}
		}
		for i := rs; i < re; i++ {
			c := int32(0)
			for _, p := range s.prodIdx[s.prodOff[i]:s.prodOff[i+1]] {
				if int(p) >= rs {
					c++
				}
			}
			s.pendBase[i] = c
		}
		s.regions = append(s.regions, int32(re))
		rs = re
	}
	return nil
}

// issueOrder writes into ord the sequence in which the oracles' ready
// heap pops instructions under pri. Regions pop in turn, so region r
// occupies ord[regions[r-1]:regions[r]].
func (s *Scheduler) issueOrder(in Input, pri Priority, ord []int32) error {
	tr := in.Trace
	n := s.n
	s.keys = growI64(s.keys, n)
	for i := 0; i < n; i++ {
		s.keys[i] = pri.Key(int64(i), tr.Insts[i].PC)
	}
	s.pending = growI32(s.pending, n)
	copy(s.pending, s.pendBase)
	s.heap.reset()

	pos := 0
	rs := 0
	for _, re32 := range s.regions {
		re := int(re32)
		for i := rs; i < re; i++ {
			if s.pending[i] == 0 {
				s.heap.push(heapItem{key: s.keys[i], seq: int32(i)})
			}
		}
		for s.heap.len() > 0 {
			i := s.heap.pop().seq
			ord[pos] = i
			pos++
			for _, c := range s.consIdx[s.consOff[i]:s.consOff[i+1]] {
				if int(c) >= re {
					break // sorted: the rest belong to later regions
				}
				s.pending[c]--
				if s.pending[c] == 0 {
					s.heap.push(heapItem{key: s.keys[c], seq: c})
				}
			}
		}
		if pos != re {
			return fmt.Errorf("listsched: scheduled %d of %d (dependence cycle?)", pos, n)
		}
		rs = re
	}
	return nil
}

// resetLanes sizes and clears the bitmap lanes for cfg.
func (s *Scheduler) resetLanes(cfg Config) {
	need := cfg.Clusters * lanesPer
	if cap(s.lanes) < need {
		grown := make([]bitLane, need)
		copy(grown, s.lanes)
		s.lanes = grown
	} else {
		s.lanes = s.lanes[:need]
	}
	caps := [lanesPer]uint8{laneWidth: uint8(cfg.Width), laneInt: uint8(cfg.Int),
		laneFP: uint8(cfg.FP), laneMem: uint8(cfg.Mem)}
	for k := 0; k < cfg.Clusters; k++ {
		for c := 0; c < lanesPer; c++ {
			s.lanes[k*lanesPer+c].reset(caps[c])
		}
	}
}

// place schedules one config along ord into out: Run's placement rule
// (earliest start, ties to the cluster of the latest-arriving producer)
// and region shift.
func (s *Scheduler) place(in Input, cfg Config, ord []int32, out *Schedule) {
	s.resetLanes(cfg)
	start, complete, cluster := out.Start, out.Complete, out.Cluster
	fwd := int64(cfg.Fwd)
	var shift int64
	rs := 0
	for _, re32 := range s.regions {
		re := int(re32)
		for _, i32 := range ord[rs:re] {
			i := int(i32)
			prods := s.prodIdx[s.prodOff[i]:s.prodOff[i+1]]

			var latest int64 = -1
			latestCluster := -1
			for _, p := range prods {
				if complete[p] > latest {
					latest = complete[p]
					latestCluster = int(cluster[p])
				}
			}

			release := in.Release[i] + shift
			bestT := int64(1) << 62
			bestK := 0
			for k := 0; k < cfg.Clusters; k++ {
				t := release
				for _, p := range prods {
					avail := complete[p]
					if int(cluster[p]) != k {
						avail += fwd
					}
					if avail > t {
						t = avail
					}
				}
				// nextFree(t) >= t, so a cluster whose data-ready time
				// already loses (or only ties without the locality
				// preference) cannot win: skip its lane scan.
				if t > bestT || (t == bestT && k != latestCluster) {
					continue
				}
				t = nextFree(&s.lanes[k*lanesPer+laneWidth], &s.lanes[k*lanesPer+int(s.fu[i])], t)
				if t < bestT || (t == bestT && k == latestCluster) {
					bestT = t
					bestK = k
				}
			}

			start[i] = bestT
			cluster[i] = int16(bestK)
			complete[i] = bestT + in.Latency[i]
			s.lanes[bestK*lanesPer+laneWidth].take(bestT)
			s.lanes[bestK*lanesPer+int(s.fu[i])].take(bestT)
			if complete[i] > out.Makespan {
				out.Makespan = complete[i]
			}
			for _, p := range prods {
				if int(cluster[p]) != bestK {
					out.CrossEdges++
					if s.dyadic[i] {
						out.DyadicCross++
					}
				}
			}
		}
		if b := re - 1; in.Mispredicted[b] {
			if excess := complete[b] - (in.Complete[b] + shift); excess > 0 {
				shift += excess
			}
		}
		rs = re
	}
}

// placeReplicated schedules one config along ord into out with
// RunReplicated's rules: the strictly earliest cluster wins (no locality
// tie-break), then binding remote producers are replicated onto it
// while re-execution beats forwarding. Replica-backed availability lives
// in the dense s.override table; out.availAt gets the rows of the
// replicated instructions at the end.
func (s *Scheduler) placeReplicated(in Input, cfg Config, ord []int32, out *ReplicatedSchedule) {
	s.resetLanes(cfg)
	clusters := cfg.Clusters
	s.override = growI64(s.override, s.n*clusters)
	clear(s.override)
	start, complete, cluster := out.Start, out.Complete, out.Cluster
	fwd := int64(cfg.Fwd)
	ov := s.override
	// availAt mirrors ReplicatedSchedule.AvailAt over the dense table
	// (replica completions are at least 1, so 0 marks no override).
	availAt := func(p int32, k int) int64 {
		if o := ov[int(p)*clusters+k]; o != 0 {
			return o
		}
		if int(cluster[p]) != k {
			return complete[p] + fwd
		}
		return complete[p]
	}
	var shift int64
	rs := 0
	for _, re32 := range s.regions {
		re := int(re32)
		for _, i32 := range ord[rs:re] {
			i := int(i32)
			prods := s.prodIdx[s.prodOff[i]:s.prodOff[i+1]]
			release := in.Release[i] + shift

			bestT := int64(1) << 62
			bestK := 0
			for k := 0; k < clusters; k++ {
				t := release
				for _, p := range prods {
					if avail := availAt(p, k); avail > t {
						t = avail
					}
				}
				if t >= bestT {
					continue // nextFree(t) >= t cannot beat bestT strictly
				}
				t = nextFree(&s.lanes[k*lanesPer+laneWidth], &s.lanes[k*lanesPer+int(s.fu[i])], t)
				if t < bestT {
					bestT = t
					bestK = k
				}
			}

			width := &s.lanes[bestK*lanesPer+laneWidth]
			for improved := true; improved; {
				improved = false
				for _, p := range prods {
					avail := availAt(p, bestK)
					if avail < bestT || int(cluster[p]) == bestK || s.mem[p] {
						continue // not binding, already local, or not re-executable
					}
					fuLane := &s.lanes[bestK*lanesPer+int(s.fu[p])]
					rt := in.Release[p] + shift
					for _, q := range s.prodIdx[s.prodOff[p]:s.prodOff[p+1]] {
						if qa := availAt(q, bestK); qa > rt {
							rt = qa
						}
					}
					rt = nextFree(width, fuLane, rt)
					rc := rt + in.Latency[p]
					if rc >= avail {
						continue // forwarding is at least as fast
					}
					width.take(rt)
					fuLane.take(rt)
					out.Replicas = append(out.Replicas, Replica{Seq: int64(p), Cluster: int16(bestK), Start: rt, Complete: rc})
					if o := &ov[int(p)*clusters+bestK]; *o == 0 || rc < *o {
						*o = rc
					}
					improved = true
				}
				if improved {
					t := release
					for _, p := range prods {
						if avail := availAt(p, bestK); avail > t {
							t = avail
						}
					}
					bestT = nextFree(width, &s.lanes[bestK*lanesPer+int(s.fu[i])], t)
				}
			}

			start[i] = bestT
			cluster[i] = int16(bestK)
			complete[i] = bestT + in.Latency[i]
			width.take(bestT)
			s.lanes[bestK*lanesPer+int(s.fu[i])].take(bestT)
			if complete[i] > out.Makespan {
				out.Makespan = complete[i]
			}
			for _, p := range prods {
				if int(cluster[p]) != bestK {
					out.CrossEdges++
					if s.dyadic[i] {
						out.DyadicCross++
					}
				}
			}
		}
		if b := re - 1; in.Mispredicted[b] {
			if excess := complete[b] - (in.Complete[b] + shift); excess > 0 {
				shift += excess
			}
		}
		rs = re
	}

	out.fwd = cfg.Fwd
	out.availAt = make(map[int64][]int64, len(out.Replicas))
	for _, r := range out.Replicas {
		if out.availAt[r.Seq] != nil {
			continue
		}
		row := make([]int64, clusters)
		for k := range row {
			if row[k] = ov[int(r.Seq)*clusters+k]; row[k] == 0 {
				row[k] = -1
			}
		}
		out.availAt[r.Seq] = row
	}
}

// fuClass maps an op to the bitLane index of its functional-unit class
// (mirroring clusterRes.fits: anything neither integer nor FP books the
// memory units).
func fuClass(op isa.Op) int {
	switch op.FU() {
	case isa.FUInt:
		return laneInt
	case isa.FUFP:
		return laneFP
	default:
		return laneMem
	}
}

// grow helpers: reuse capacity without clearing (callers overwrite).
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

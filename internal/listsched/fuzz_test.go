package listsched_test

import (
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/trace"
	"clustersim/internal/trace/tracetest"
)

// fuzzSchedMaxInsts bounds trace length so each fuzz execution stays
// fast (scheduling is O(n · clusters) with small constants).
const fuzzSchedMaxInsts = 2048

// FuzzScheduleVariants feeds decoder output into both scheduler paths:
// any byte stream the tracetest decoder accepts becomes a synthetic
// scheduling Input (trace-derived latencies, block releases, mispredict
// marks on a subset of branches), scheduled by the retained oracle Run
// and by the pooled batched fast path. Both must agree byte-for-byte
// and satisfy the Check invariants — the decoder must never be able to
// produce a trace that derails or desynchronizes the schedulers. This
// exercises producer shapes the workload generator never emits (e.g.
// stores whose forwarded value and register source are the same
// instruction), which is exactly where the per-value dedup semantics
// must hold.
func FuzzScheduleVariants(f *testing.F) {
	// Seed with a small valid trace exercising register and memory
	// dependences, same-producer dyadic reads, and branches.
	b := trace.NewBuilder(0)
	for i := 0; i < 64; i++ {
		in := isa.Inst{
			PC:  uint64(0x200 + 4*(i%16)),
			Op:  isa.IntALU,
			Dst: isa.Reg(1 + i%5),
			Src: [2]isa.Reg{isa.Reg(1 + (i+1)%5), isa.Reg(1 + (i+1)%5)},
		}
		switch i % 8 {
		case 2:
			in.Op, in.Addr = isa.Store, uint64(32*(i%6))
			in.Dst = isa.NoReg
		case 4:
			in.Op, in.Addr = isa.Load, uint64(32*(i%6))
		case 7:
			in.Op, in.Taken = isa.Branch, i%2 == 0
			in.Dst = isa.NoReg
		}
		b.Append(in)
	}
	f.Add(tracetest.Encode(b.Trace()))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := tracetest.Decode(data)
		if err != nil || tr.Len() == 0 || tr.Len() > fuzzSchedMaxInsts {
			return
		}
		n := tr.Len()
		in := listsched.Input{
			Trace:        tr,
			Release:      make([]int64, n),
			Latency:      make([]int64, n),
			Mispredicted: make([]bool, n),
			Complete:     make([]int64, n),
		}
		for i := 0; i < n; i++ {
			in.Release[i] = int64(i / 8)
			in.Latency[i] = 1 + int64(i%3)
			in.Mispredicted[i] = tr.Insts[i].Op == isa.Branch && i%3 == 0
			in.Complete[i] = in.Release[i] + in.Latency[i] + 2
		}
		oracle := listsched.NewOracle(in)
		cfg2 := listsched.ConfigFor(machine.NewConfig(2))
		cfg8 := listsched.ConfigFor(machine.NewConfig(8))
		variants := []listsched.Variant{
			{Config: cfg2, Pri: oracle},
			{Config: cfg8, Pri: oracle},
		}
		sched := listsched.NewScheduler()
		defer sched.Recycle()
		got, err := sched.ScheduleVariants(in, variants)
		if err != nil {
			t.Fatalf("fast path failed on decoded trace: %v", err)
		}
		for j, v := range variants {
			want, err := listsched.Run(in, v.Config, v.Pri)
			if err != nil {
				t.Fatalf("oracle failed on decoded trace: %v", err)
			}
			if err := listsched.Check(in, v.Config, want); err != nil {
				t.Fatalf("oracle schedule violates invariants: %v", err)
			}
			if err := listsched.Check(in, v.Config, got[j]); err != nil {
				t.Fatalf("fast schedule violates invariants: %v", err)
			}
			if got[j].Makespan != want.Makespan || got[j].CrossEdges != want.CrossEdges ||
				got[j].DyadicCross != want.DyadicCross {
				t.Fatalf("variant %d summaries diverge: fast (%d,%d,%d) oracle (%d,%d,%d)", j,
					got[j].Makespan, got[j].CrossEdges, got[j].DyadicCross,
					want.Makespan, want.CrossEdges, want.DyadicCross)
			}
			for i := range want.Start {
				if got[j].Start[i] != want.Start[i] || got[j].Cluster[i] != want.Cluster[i] {
					t.Fatalf("variant %d inst %d diverges: fast (%d,c%d) oracle (%d,c%d)", j, i,
						got[j].Start[i], got[j].Cluster[i], want.Start[i], want.Cluster[i])
				}
			}
		}
	})
}

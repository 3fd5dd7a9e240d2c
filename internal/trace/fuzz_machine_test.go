// Machine round-trip fuzzing lives in an external test package: the
// machine package imports trace, so an in-package test could not import
// it back.
package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/machine"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/trace/tracetest"
)

// fuzzMachineMaxInsts bounds simulated trace length so each fuzz
// execution stays fast.
const fuzzMachineMaxInsts = 2048

// FuzzMachineRoundTrip drives decoder output end-to-end: any byte stream
// the tracetest decoder accepts is round-tripped through the CTR2 store
// (WriteStore, OpenBytes, Load must give back a deep-equal trace) and
// executed on the machine (pooled, with a bypass-limited two-cluster
// configuration so the broadcast-slot path runs too). The invariant
// checker must stay silent — no decodable trace may derail the
// scheduler.
func FuzzMachineRoundTrip(f *testing.F) {
	// Seed with a small valid trace exercising register and memory
	// dependences plus branches.
	b := trace.NewBuilder(0)
	for i := 0; i < 48; i++ {
		in := isa.Inst{
			PC:  uint64(0x100 + 4*(i%12)),
			Op:  isa.IntALU,
			Dst: isa.Reg(1 + i%6),
			Src: [2]isa.Reg{isa.Reg(1 + (i+1)%6), isa.NoReg},
		}
		switch i % 7 {
		case 3:
			in.Op, in.Addr = isa.Store, uint64(64*(i%5))
			in.Dst = isa.NoReg
		case 5:
			in.Op, in.Addr = isa.Load, uint64(64*(i%5))
		case 6:
			in.Op, in.Taken = isa.Branch, i%2 == 0
			in.Dst = isa.NoReg
		}
		b.Append(in)
	}
	f.Add(tracetest.Encode(b.Trace()))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := tracetest.Decode(data)
		if err != nil || tr.Len() == 0 || tr.Len() > fuzzMachineMaxInsts {
			return
		}
		// Round-trip through the CTR2 store, in small chunks so dependence
		// edges cross chunk boundaries; the machine runs the loaded copy.
		var out bytes.Buffer
		if err := trace.WriteStore(&out, tr, trace.WriterOptions{ChunkLen: 64}); err != nil {
			t.Fatalf("CTR2 encode failed: %v", err)
		}
		st, err := trace.OpenBytes(out.Bytes())
		if err != nil {
			t.Fatalf("CTR2 open failed: %v", err)
		}
		tr2, err := st.Load()
		if err != nil {
			t.Fatalf("CTR2 load failed: %v", err)
		}
		if !reflect.DeepEqual(tr2, tr) {
			t.Fatal("CTR2 round trip changed the trace")
		}
		cfg := machine.NewConfig(2)
		cfg.BypassPerCluster = 1
		m, err := machine.NewPooled(cfg, tr2, steer.DepBased{}, machine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if err := machine.Check(m); err != nil {
			t.Fatalf("invariants violated on decoded trace: %v", err)
		}
		if res.Insts != int64(tr2.Len()) {
			t.Fatalf("result covers %d of %d insts", res.Insts, tr2.Len())
		}
		machine.Recycle(m)
	})
}

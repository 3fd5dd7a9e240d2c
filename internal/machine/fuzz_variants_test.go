package machine_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/trace/tracetest"
	"clustersim/internal/xrand"
)

// fuzzVariantsMaxInsts bounds simulated trace length so each fuzz
// execution stays fast.
const fuzzVariantsMaxInsts = 2048

// fuzzVariantList builds the fused batch for one fuzz execution: three
// geometries whose policy/scheduler mix is selected by sel, always
// including at least one kernel policy and one bypass-limited config so
// the broadcast-slot path runs fused too.
func fuzzVariantList(tr *trace.Trace, sel uint8) []machine.Variant {
	bin := predictor.NewDefaultBinary()
	r := xrand.New(uint64(sel) + 1)
	for i := range tr.Insts {
		if r.Bool(0.3) {
			bin.Train(tr.Insts[i].PC, r.Bool(0.5))
		}
	}
	loc := predictor.NewDefaultLoC(xrand.New(uint64(sel) + 2))

	c1 := machine.NewConfig(1)
	c2 := machine.NewConfig(2)
	c2.BypassPerCluster = 1
	c4 := machine.NewConfig(4)
	c4.GroupSteering = sel&4 != 0

	v1 := machine.Variant{Config: c1, Pol: steer.DepBased{}}
	v2 := machine.Variant{Config: c2, Pol: steer.Focused{}, Hooks: machine.Hooks{Binary: bin}}
	if sel&1 != 0 {
		c2.SchedMode = machine.SchedBinaryCritical
		v2.Config = c2
	}
	v3 := machine.Variant{Config: c4, Pol: steer.LoC{}, Hooks: machine.Hooks{LoC: loc}}
	if sel&2 != 0 {
		c4.SchedMode = machine.SchedLoC
		v3 = machine.Variant{Config: c4, Pol: &steer.StallOverSteer{}, Hooks: machine.Hooks{LoC: loc}}
	}
	return []machine.Variant{v1, v2, v3}
}

// FuzzSimulateVariants drives decoder output through the fused
// multi-variant path: any byte stream the tracetest decoder accepts is
// run both fused and on the scan oracle across three machine geometries,
// and the results must be byte-identical with the invariant checker
// silent.
// This is the machine-level mirror of listsched's FuzzScheduleVariants.
func FuzzSimulateVariants(f *testing.F) {
	// Seed with a small valid trace exercising register and memory
	// dependences plus branches (committed corpus entries in
	// testdata/fuzz extend this with other shapes).
	b := trace.NewBuilder(0)
	for i := 0; i < 64; i++ {
		in := isa.Inst{
			PC:  uint64(0x100 + 4*(i%16)),
			Op:  isa.IntALU,
			Dst: isa.Reg(1 + i%6),
			Src: [2]isa.Reg{isa.Reg(1 + (i+1)%6), isa.NoReg},
		}
		switch i % 6 {
		case 2:
			in.Op, in.Addr = isa.Store, uint64(64*(i%7))
			in.Dst = isa.NoReg
		case 4:
			in.Op, in.Addr = isa.Load, uint64(64*(i%7))
		case 5:
			in.Op, in.Taken = isa.Branch, i%3 == 0
			in.Dst = isa.NoReg
		}
		b.Append(in)
	}
	seed := tracetest.Encode(b.Trace())
	for sel := uint8(0); sel < 8; sel++ {
		f.Add(seed, sel)
	}
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		tr, err := tracetest.Decode(data)
		if err != nil || tr.Len() == 0 || tr.Len() > fuzzVariantsMaxInsts {
			return
		}
		variants := fuzzVariantList(tr, sel)
		outs, _, err := machine.SimulateVariants(tr, variants, 1)
		if err != nil {
			t.Fatalf("SimulateVariants failed on decoded trace: %v", err)
		}
		ref := fuzzVariantList(tr, sel)
		for i := range outs {
			if err := machine.Check(outs[i].M); err != nil {
				t.Fatalf("variant %d: invariants violated: %v", i, err)
			}
			m, err := machine.New(ref[i].Config, tr, ref[i].Pol, ref[i].Hooks)
			if err != nil {
				t.Fatal(err)
			}
			m.UseOracleIssue(true)
			res := m.Run()
			if outs[i].Res != res {
				t.Fatalf("variant %d: fused result %+v != oracle %+v", i, outs[i].Res, res)
			}
			oev, fev := m.Events(), outs[i].M.Events()
			for s := range fev {
				if fev[s] != oev[s] {
					t.Fatalf("variant %d: event %d differs:\n fused: %+v\noracle: %+v", i, s, fev[s], oev[s])
				}
			}
		}
		for _, o := range outs {
			machine.Recycle(o.M)
		}
	})
}

// TestFuzzCorpusDecodes: every committed FuzzSimulateVariants corpus
// entry must decode to a non-empty trace, or the fuzz body returns early
// and the entry silently stops testing anything.
func TestFuzzCorpusDecodes(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzSimulateVariants/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed corpus entries (%v)", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// Line 2 of a "go test fuzz v1" file holds the []byte argument.
		lines := strings.Split(string(raw), "\n")
		lit, ok := strings.CutPrefix(lines[1], "[]byte(")
		if !ok {
			t.Fatalf("%s: unexpected corpus line %q", p, lines[1])
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		tr, err := tracetest.Decode([]byte(data))
		if err != nil || tr.Len() == 0 {
			t.Errorf("%s: decodes to no trace (%v)", p, err)
		}
	}
}

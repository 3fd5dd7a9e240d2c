package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"clustersim/internal/isa"
	"clustersim/internal/xrand"
)

func mkInst(op isa.Op, dst isa.Reg, srcs ...isa.Reg) isa.Inst {
	in := isa.Inst{Op: op, Dst: dst, Src: [2]isa.Reg{isa.NoReg, isa.NoReg}}
	copy(in.Src[:], srcs)
	return in
}

func TestBuilderRegisterDeps(t *testing.T) {
	b := NewBuilder(0)
	b.Append(mkInst(isa.IntALU, 1))            // 0: writes r1
	b.Append(mkInst(isa.IntALU, 2, 1))         // 1: r1 -> r2
	b.Append(mkInst(isa.IntALU, 1, 2))         // 2: r2 -> r1 (redefines r1)
	b.Append(mkInst(isa.IntALU, 3, 1, 2))      // 3: r1,r2 -> r3
	b.Append(mkInst(isa.Branch, isa.NoReg, 3)) // 4: r3
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	want := [][2]int32{{None, None}, {0, None}, {1, None}, {2, 1}, {3, None}}
	for i, w := range want {
		if tr.Deps[i].Src != w {
			t.Errorf("inst %d deps = %v, want %v", i, tr.Deps[i].Src, w)
		}
	}
}

func TestBuilderUnwrittenSourceHasNoDep(t *testing.T) {
	b := NewBuilder(0)
	b.Append(mkInst(isa.IntALU, 5, 9)) // r9 never written
	tr := b.Trace()
	if tr.Deps[0].Src[0] != None {
		t.Fatalf("dep on unwritten register = %d, want None", tr.Deps[0].Src[0])
	}
}

func TestBuilderStoreLoadDep(t *testing.T) {
	b := NewBuilder(0)
	st := mkInst(isa.Store, isa.NoReg, 1, 2)
	st.Addr = 0x100
	b.Append(st) // 0
	ld := mkInst(isa.Load, 3, 4)
	ld.Addr = 0x100
	b.Append(ld) // 1: should forward from store 0
	ld2 := mkInst(isa.Load, 5, 4)
	ld2.Addr = 0x108
	b.Append(ld2) // 2: different address, no mem dep
	st2 := mkInst(isa.Store, isa.NoReg, 1, 2)
	st2.Addr = 0x100
	b.Append(st2) // 3: newer store
	ld3 := mkInst(isa.Load, 6, 4)
	ld3.Addr = 0x100
	b.Append(ld3) // 4: forwards from store 3, not 0
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Deps[1].Mem != 0 {
		t.Errorf("load 1 mem dep = %d, want 0", tr.Deps[1].Mem)
	}
	if tr.Deps[2].Mem != None {
		t.Errorf("load 2 mem dep = %d, want None", tr.Deps[2].Mem)
	}
	if tr.Deps[4].Mem != 3 {
		t.Errorf("load 4 mem dep = %d, want 3", tr.Deps[4].Mem)
	}
}

func TestProducers(t *testing.T) {
	b := NewBuilder(0)
	b.Append(mkInst(isa.IntALU, 1))
	st := mkInst(isa.Store, isa.NoReg, 1)
	st.Addr = 8
	b.Append(st)
	ld := mkInst(isa.Load, 2, 1)
	ld.Addr = 8
	b.Append(ld)
	tr := b.Trace()
	got := tr.Producers(2, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Producers(2) = %v, want [0 1]", got)
	}
}

// randomInsts builds a structurally valid random instruction stream.
func randomInsts(r *xrand.Rand, n int) []isa.Inst {
	insts := make([]isa.Inst, 0, n)
	for i := 0; i < n; i++ {
		op := isa.Op(r.Intn(int(isa.NumOps)))
		in := isa.Inst{
			Op:  op,
			PC:  uint64(0x1000 + 4*r.Intn(256)),
			Src: [2]isa.Reg{isa.NoReg, isa.NoReg},
			Dst: isa.NoReg,
		}
		for s := 0; s < 2; s++ {
			if r.Bool(0.7) {
				in.Src[s] = isa.Reg(r.Intn(isa.NumRegs))
			}
		}
		if op != isa.Store && op != isa.Branch {
			in.Dst = isa.Reg(r.Intn(isa.NumRegs))
		}
		if op.IsMem() {
			in.Addr = uint64(r.Intn(64)) * 8
		}
		if op.IsBranch() {
			in.Taken = r.Bool(0.5)
		}
		insts = append(insts, in)
	}
	return insts
}

func TestRebuildValidatesRandomStreams(t *testing.T) {
	r := xrand.New(77)
	for trial := 0; trial < 20; trial++ {
		tr := Rebuild(randomInsts(r, 500))
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	b := NewBuilder(0)
	b.Append(mkInst(isa.IntALU, 1))
	b.Append(mkInst(isa.IntALU, 2, 1))
	tr := b.Trace()

	tr.Deps[1].Src[0] = 5 // out of range
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted out-of-range dep")
	}
	tr.Deps[1].Src[0] = None
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "absent") {
		// dep removed but src register still present -> mismatch direction:
		// actually None deps on present srcs are legal (unwritten reg), so
		// reset and corrupt differently.
		_ = err
	}
	tr.Deps[1].Src[0] = 0
	tr.Insts[0].Dst = 9 // producer no longer writes r1
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted mismatched producer register")
	}
}

func TestValidateDetectsBadMemDep(t *testing.T) {
	b := NewBuilder(0)
	st := mkInst(isa.Store, isa.NoReg, 1)
	st.Addr = 16
	b.Append(st)
	ld := mkInst(isa.Load, 2)
	ld.Addr = 16
	b.Append(ld)
	tr := b.Trace()
	tr.Insts[0].Addr = 24
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted address-mismatched mem dep")
	}
}

// storeRoundTrip writes tr as a CTR2 store and loads it back.
func storeRoundTrip(tr *Trace, opts WriterOptions) (*Trace, error) {
	var buf bytes.Buffer
	if err := WriteStore(&buf, tr, opts); err != nil {
		return nil, err
	}
	st, err := OpenBytes(buf.Bytes(), OpenOptions{})
	if err != nil {
		return nil, err
	}
	return st.Load()
}

// TestCodecRoundTrip: a random program survives the CTR2 store, raw and
// compressed, deep-equal down to the producer index.
func TestCodecRoundTrip(t *testing.T) {
	tr := Rebuild(randomInsts(xrand.New(123), 2000))
	for _, opts := range []WriterOptions{{ChunkLen: 300}, {ChunkLen: 300, Compress: true}} {
		got, err := storeRoundTrip(tr, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("%+v: round trip changed the trace", opts)
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed uint64, nRaw, chunkRaw uint16) bool {
		tr := Rebuild(randomInsts(xrand.New(seed), int(nRaw%300)))
		got, err := storeRoundTrip(tr, WriterOptions{ChunkLen: 1 + int(chunkRaw%128)})
		if err != nil || got.Validate() != nil {
			return false
		}
		// An empty trace loads with empty rather than nil slices.
		return tr.Len() == 0 && got.Len() == 0 || reflect.DeepEqual(got, tr)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestCodecRejectsGarbage: the store reader refuses non-CTR2 input, and a
// retired CTR1 whole-trace file gets an error that says to regenerate it.
func TestCodecRejectsGarbage(t *testing.T) {
	for name, data := range map[string][]byte{"bad magic": []byte("nope"), "empty": nil} {
		if _, err := OpenBytes(data, OpenOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ctr1 := []byte("CTR1\x05\x00\x00\x00\x00\x00\x00\x00")
	if _, err := OpenBytes(ctr1, OpenOptions{}); !errors.Is(err, ErrBadFormat) ||
		!strings.Contains(err.Error(), "regenerate it with tracegen") {
		t.Errorf("CTR1 file: err = %v, want ErrBadFormat with a regenerate-with-tracegen hint", err)
	}
	// A sealed store cut short loses its trailer.
	var buf bytes.Buffer
	if err := WriteStore(&buf, Rebuild([]isa.Inst{mkInst(isa.IntALU, 1)}), WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBytes(buf.Bytes()[:buf.Len()-3], OpenOptions{}); !errors.Is(err, ErrTornStore) {
		t.Errorf("truncated store: err = %v, want ErrTornStore", err)
	}
}

func TestSummarize(t *testing.T) {
	b := NewBuilder(0)
	b.Append(mkInst(isa.IntALU, 1))
	b.Append(mkInst(isa.Load, 2))
	br := mkInst(isa.Branch, isa.NoReg, 1)
	br.Taken = true
	b.Append(br)
	b.Append(mkInst(isa.Branch, isa.NoReg, 2))
	tr := b.Trace()
	s := tr.Summarize()
	if s.Total != 4 || s.Branches != 2 || s.Taken != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Frac(isa.Load) != 0.25 {
		t.Fatalf("Frac(Load) = %v", s.Frac(isa.Load))
	}
	var empty Stats
	if empty.Frac(isa.Load) != 0 {
		t.Fatal("empty stats Frac must be 0")
	}
}

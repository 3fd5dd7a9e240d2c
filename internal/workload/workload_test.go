package workload

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/trace"
	"clustersim/internal/xrand"
)

func TestNamesAreThePaperTwelve(t *testing.T) {
	want := []string{"bzip2", "crafty", "eon", "gap", "gcc", "gzip",
		"mcf", "parser", "perl", "twolf", "vortex", "vpr"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate("nope", 10, 1); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestAllProfilesGenerateValidTraces(t *testing.T) {
	for _, name := range Names() {
		tr, err := Generate(name, 5000, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Len() < 5000 {
			t.Errorf("%s: generated %d instructions, want >= 5000", name, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: invalid trace: %v", name, err)
		}
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, err := Generate(name, 2000, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 2000, 42)
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range a.Insts {
			if a.Insts[i] != b.Insts[i] {
				t.Fatalf("%s: instruction %d differs between identical runs", name, i)
			}
		}
	}
}

func TestSeedsChangeOutcomes(t *testing.T) {
	a, _ := Generate("vpr", 2000, 1)
	b, _ := Generate("vpr", 2000, 2)
	diff := false
	for i := 0; i < min(a.Len(), b.Len()); i++ {
		if a.Insts[i] != b.Insts[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestStaticPCsAreStable(t *testing.T) {
	// Each profile must reuse a bounded set of static PCs (predictors
	// depend on it): the static footprint must be far smaller than the
	// dynamic length.
	for _, name := range Names() {
		tr, _ := Generate(name, 20000, 1)
		pcs := map[uint64]bool{}
		for i := range tr.Insts {
			pcs[tr.Insts[i].PC] = true
		}
		if len(pcs) > 2000 {
			t.Errorf("%s: %d static PCs for 20000 dynamic insts", name, len(pcs))
		}
		if len(pcs) < 10 {
			t.Errorf("%s: implausibly few static PCs (%d)", name, len(pcs))
		}
	}
}

func TestStaticPCHasStableOp(t *testing.T) {
	// A static PC must always decode to the same operation and operands.
	for _, name := range Names() {
		tr, _ := Generate(name, 20000, 3)
		type sig struct {
			op  isa.Op
			dst isa.Reg
		}
		seen := map[uint64]sig{}
		for i := range tr.Insts {
			in := &tr.Insts[i]
			s := sig{in.Op, in.Dst}
			if prev, ok := seen[in.PC]; ok && prev != s {
				t.Fatalf("%s: PC %#x decodes as both %+v and %+v", name, in.PC, prev, s)
			}
			seen[in.PC] = s
		}
	}
}

func TestOpMixesAreSane(t *testing.T) {
	for _, name := range Names() {
		tr, _ := Generate(name, 30000, 1)
		s := tr.Summarize()
		brFrac := float64(s.Branches) / float64(s.Total)
		if brFrac < 0.02 || brFrac > 0.35 {
			t.Errorf("%s: branch fraction %.3f out of plausible range", name, brFrac)
		}
		memFrac := s.Frac(isa.Load) + s.Frac(isa.Store)
		if memFrac < 0.03 || memFrac > 0.6 {
			t.Errorf("%s: memory fraction %.3f out of plausible range", name, memFrac)
		}
	}
}

func TestProfileCharacterDifferences(t *testing.T) {
	gen := func(name string) trace.Stats {
		tr, _ := Generate(name, 30000, 1)
		return tr.Summarize()
	}
	mcf := gen("mcf")
	eon := gen("eon")
	if mcf.Frac(isa.Load) <= 0.15 {
		t.Errorf("mcf load fraction %.3f should be high (pointer chasing)", mcf.Frac(isa.Load))
	}
	if eon.Frac(isa.FPAdd)+eon.Frac(isa.FPMult) <= 0.05 {
		t.Error("eon should have a visible FP mix")
	}
	gcc := gen("gcc")
	gzip := gen("gzip")
	gccBr := float64(gcc.Branches) / float64(gcc.Total)
	gzipBr := float64(gzip.Branches) / float64(gzip.Total)
	if gccBr <= gzipBr {
		t.Errorf("gcc branch fraction (%.3f) should exceed gzip's (%.3f)", gccBr, gzipBr)
	}
}

func TestStreamWraps(t *testing.T) {
	s := Stream{Base: 100, Size: 32, Stride: 8}
	want := []uint64{100, 108, 116, 124, 100, 108}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("step %d: %d, want %d", i, got, w)
		}
	}
}

func TestChaseStaysInRegion(t *testing.T) {
	c := NewChase(1<<20, 1<<16, xrand.New(5))
	for i := 0; i < 1000; i++ {
		a := c.Next()
		if a < 1<<20 || a >= (1<<20)+(1<<16) {
			t.Fatalf("chase address %#x out of region", a)
		}
		if a%64 != 0 {
			t.Fatalf("chase address %#x not line aligned", a)
		}
	}
}

func TestRegAllocDisjoint(t *testing.T) {
	ra := NewRegAlloc()
	a := ra.Take(3)
	b := ra.Take(3)
	seen := map[isa.Reg]bool{}
	for _, r := range append(a, b...) {
		if seen[r] {
			t.Fatalf("register %d allocated twice", r)
		}
		if !r.Valid() {
			t.Fatalf("invalid register %d allocated", r)
		}
		seen[r] = true
	}
}

func TestRegAllocExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegAlloc().Take(isa.NumRegs)
}

func TestDivergentLoopExitsOncePerSearch(t *testing.T) {
	ra := NewRegAlloc()
	d := NewDivergentLoop(0x1000, ra, 6, residentWS)
	b := trace.NewBuilder(0)
	e := &Emitter{b: b, rng: xrand.New(9)}
	for i := 0; i < 600; i++ {
		d.EmitIteration(e)
	}
	tr := b.Trace()
	exits, backs := 0, 0
	for i := range tr.Insts {
		in := &tr.Insts[i]
		if !in.Op.IsBranch() {
			continue
		}
		switch in.PC {
		case 0x1000 + 20:
			if in.Taken {
				exits++
			}
		case 0x1000 + 24:
			backs++
		}
	}
	if exits == 0 {
		t.Fatal("early exit never fired")
	}
	// Mean search length 6 over 600 iterations: expect roughly 100 exits.
	if exits < 40 || exits > 250 {
		t.Fatalf("exits = %d, want near 100", exits)
	}
	if backs != 600 {
		t.Fatalf("loop-back branches = %d, want 600", backs)
	}
}

func TestSpineRibSharedSource(t *testing.T) {
	// The rib head ("a") and the first spine op of the NEXT iteration both
	// consume the spine head register — the Figure 7 contention setup.
	ra := NewRegAlloc()
	s := NewSpineRib(0x2000, ra, 2, 2, 0.5, residentWS)
	b := trace.NewBuilder(0)
	e := &Emitter{b: b, rng: xrand.New(1)}
	for i := 0; i < 10; i++ {
		s.EmitIteration(e)
	}
	tr := b.Trace()
	// Find instructions consuming the spine head register.
	spineHead := s.sregs[0]
	consumers := 0
	for i := range tr.Insts {
		for _, src := range tr.Insts[i].Src {
			if src == spineHead {
				consumers++
			}
		}
	}
	if consumers < 10 {
		t.Fatalf("spine head consumed %d times over 10 iterations", consumers)
	}
}

func TestGeneratePanicsOnEmptyProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Profile{Name: "empty"}).Generate(10, xrand.New(1))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkGenerateVpr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate("vpr", 100000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNewStreamRejectsZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-size stream region")
		}
	}()
	NewStream(0x1000, 0, 8)
}

func TestNewChaseRejectsSubLineRegion(t *testing.T) {
	// Size < 64 means zero whole lines: Next would feed Uint64n(0), which
	// panics deep inside generation; construction must reject it instead.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for sub-line chase region")
		}
	}()
	NewChase(0x1000, 63, xrand.New(1))
}

func TestNewChaseMinimumRegionWorks(t *testing.T) {
	c := NewChase(0x1000, 64, xrand.New(1))
	for i := 0; i < 10; i++ {
		if a := c.Next(); a != 0x1000 {
			t.Fatalf("single-line chase returned %#x", a)
		}
	}
}

func TestGenerateChunkedMatchesGenerate(t *testing.T) {
	// The streaming path must emit the byte-identical instruction stream,
	// with identical dependence annotations, as the in-memory path — on
	// every benchmark, across chunk boundaries.
	for _, name := range Names() {
		want, err := Generate(name, 4000, 7)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, trace.WriterOptions{ChunkLen: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := GenerateChunked(name, 4000, 7, w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := trace.OpenBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: streaming %d insts, in-memory %d", name, got.Len(), want.Len())
		}
		for i := range want.Insts {
			if got.Insts[i] != want.Insts[i] {
				t.Fatalf("%s: inst %d differs between streaming and in-memory", name, i)
			}
			if got.Deps[i] != want.Deps[i] {
				t.Fatalf("%s: dep %d differs between streaming and in-memory", name, i)
			}
		}
	}
}

func TestGenerateChunkedUnknownName(t *testing.T) {
	w, err := trace.NewWriter(io.Discard, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateChunked("nope", 10, 1, w); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestGenerateToFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vpr.ctr2")
	if err := GenerateToFile("vpr", 3000, 5, path, trace.WriterOptions{ChunkLen: 256}); err != nil {
		t.Fatal(err)
	}
	st, err := trace.Open(path, trace.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Generate("vpr", 3000, 5)
	if got.Len() != want.Len() {
		t.Fatalf("file store has %d insts, want %d", got.Len(), want.Len())
	}
	for i := range want.Insts {
		if got.Insts[i] != want.Insts[i] {
			t.Fatalf("inst %d differs", i)
		}
	}
	// No temp litter after a clean run.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want just the store", len(ents))
	}
	// Unknown benchmark must fail without creating the target file.
	bad := filepath.Join(dir, "bad.ctr2")
	if err := GenerateToFile("nope", 10, 1, bad, trace.WriterOptions{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("failed generation left %s behind", bad)
	}
}

// Package workload generates the synthetic dynamic instruction traces that
// stand in for the paper's SPEC CPU2000 integer runs.
//
// The paper's results are driven by the *shape* of program dataflow —
// spine-and-ribs loops whose ribs end in hard-to-predict branches (Fig. 7),
// convergent dataflow into dyadic operations (Fig. 3), dataflow hammocks,
// divergent early-exit loops with two loop-carried dependences (Fig. 12),
// pointer chasing, and wide independent chains. This package implements
// each of those archetypes as a reusable generator and composes them, with
// per-benchmark parameters (branch predictability, load locality, FP mix,
// ILP), into twelve profiles named after the SPEC integer benchmarks.
//
// Static instructions have stable PCs across loop iterations, so the
// machine's PC-indexed predictors (gshare, the criticality predictors)
// behave as they would on real code.
package workload

import (
	"fmt"
	"io"
	"sort"

	"clustersim/internal/durable"
	"clustersim/internal/isa"
	"clustersim/internal/trace"
	"clustersim/internal/xrand"
)

// Emitter appends dynamic instructions to a trace under construction —
// an in-memory Builder or a streaming CTR2 Writer; archetypes are handed
// it one loop iteration at a time and cannot tell which sink is behind
// it.
type Emitter struct {
	b   trace.Appender
	rng *xrand.Rand
}

// Rng returns the emitter's random source (for data-dependent outcomes).
func (e *Emitter) Rng() *xrand.Rand { return e.rng }

// Len returns the number of instructions emitted so far.
func (e *Emitter) Len() int { return e.b.Len() }

// Op emits a register-register operation.
func (e *Emitter) Op(pc uint64, op isa.Op, dst isa.Reg, srcs ...isa.Reg) {
	in := isa.Inst{PC: pc, Op: op, Dst: dst, Src: [2]isa.Reg{isa.NoReg, isa.NoReg}}
	copy(in.Src[:], srcs)
	e.b.Append(in)
}

// Load emits a load of addr into dst, with the address computed from
// addrReg (NoReg for an immediate address).
func (e *Emitter) Load(pc uint64, dst, addrReg isa.Reg, addr uint64) {
	e.b.Append(isa.Inst{PC: pc, Op: isa.Load, Dst: dst,
		Src: [2]isa.Reg{addrReg, isa.NoReg}, Addr: addr})
}

// Store emits a store of valReg to addr addressed via addrReg.
func (e *Emitter) Store(pc uint64, valReg, addrReg isa.Reg, addr uint64) {
	e.b.Append(isa.Inst{PC: pc, Op: isa.Store, Dst: isa.NoReg,
		Src: [2]isa.Reg{valReg, addrReg}, Addr: addr})
}

// Branch emits a conditional branch on src with the given outcome.
func (e *Emitter) Branch(pc uint64, src isa.Reg, taken bool) {
	e.b.Append(isa.Inst{PC: pc, Op: isa.Branch, Dst: isa.NoReg,
		Src: [2]isa.Reg{src, isa.NoReg}, Taken: taken})
}

// RegAlloc hands out disjoint architectural registers to archetype
// instances so their dataflow never aliases accidentally.
type RegAlloc struct{ next isa.Reg }

// NewRegAlloc returns an allocator starting at register 1 (r0 is reserved
// as a conventional zero/scratch register).
func NewRegAlloc() *RegAlloc { return &RegAlloc{next: 1} }

// Take allocates n registers and returns them. It panics if the register
// file is exhausted — profiles are written to fit in isa.NumRegs.
func (a *RegAlloc) Take(n int) []isa.Reg {
	if int(a.next)+n > isa.NumRegs {
		panic(fmt.Sprintf("workload: register file exhausted (need %d at r%d)", n, a.next))
	}
	out := make([]isa.Reg, n)
	for i := range out {
		out[i] = a.next
		a.next++
	}
	return out
}

// Stream generates sequential addresses within a wrapping region; regions
// larger than the L1 produce capacity misses at a rate set by the region
// size, smaller regions stay resident. Use NewStream: Next computes
// pos % Size, so a zero Size built by hand would panic mid-generation
// with a bare divide-by-zero instead of a diagnosable error.
type Stream struct {
	Base   uint64
	Size   uint64 // region size in bytes (power of two recommended)
	Stride uint64
	pos    uint64
}

// NewStream builds a wrapping sequential-address stream. It panics with
// a diagnosable message if size is zero (the modulus Next divides by).
func NewStream(base, size, stride uint64) Stream {
	if size == 0 {
		panic("workload: Stream with zero region size (Next computes pos % Size)")
	}
	return Stream{Base: base, Size: size, Stride: stride}
}

// Next returns the next address in the stream.
func (s *Stream) Next() uint64 {
	a := s.Base + s.pos
	s.pos = (s.pos + s.Stride) % s.Size
	return a
}

// Chase generates pseudo-random line-granular addresses within a region,
// modeling pointer chasing through a large heap.
type Chase struct {
	Base uint64
	Size uint64
	rng  *xrand.Rand
}

// NewChase builds a chase over [base, base+size) using rng. It panics
// with a diagnosable message if the region is smaller than one 64-byte
// line (Next draws from Size/64 lines; zero lines would panic inside
// xrand.Uint64n mid-generation).
func NewChase(base, size uint64, rng *xrand.Rand) *Chase {
	if size < 64 {
		panic(fmt.Sprintf("workload: Chase region of %d bytes holds no 64-byte lines", size))
	}
	return &Chase{Base: base, Size: size, rng: rng}
}

// Next returns the next pointer target (64-byte aligned).
func (c *Chase) Next() uint64 {
	lines := c.Size / 64
	return c.Base + c.rng.Uint64n(lines)*64
}

// Archetype is one dataflow pattern instance. EmitIteration appends one
// loop iteration's dynamic instructions.
type Archetype interface {
	EmitIteration(e *Emitter)
}

// Profile describes one synthetic benchmark: a set of archetype instances
// and an interleave weight for each (how many consecutive iterations of
// that archetype run before moving to the next, modeling program phases at
// a fine grain).
type Profile struct {
	Name  string
	parts []weighted
}

type weighted struct {
	arch   Archetype
	weight int
}

// Add registers an archetype with the given interleave weight. Custom
// profiles compose archetypes this way; weights set how many consecutive
// iterations of the archetype run before moving on.
func (p *Profile) Add(a Archetype, weight int) {
	if weight <= 0 {
		panic("workload: non-positive weight")
	}
	p.parts = append(p.parts, weighted{a, weight})
}

// Generate produces a dynamic trace of at least n instructions (the final
// iteration is allowed to overshoot slightly). Generation is deterministic
// given the profile's construction seed.
func (p *Profile) Generate(n int, rng *xrand.Rand) *trace.Trace {
	b := trace.NewBuilder(n + 64)
	p.GenerateInto(b, n, rng)
	return b.Trace()
}

// GenerateInto emits the same dynamic instruction stream Generate builds
// into an arbitrary sink — a streaming CTR2 Writer for paper-scale runs
// that never materialize the trace. The instruction sequence is a pure
// function of (profile state, n, rng), independent of the sink, which is
// what the streaming-vs-in-memory differential gate pins.
func (p *Profile) GenerateInto(sink trace.Appender, n int, rng *xrand.Rand) {
	if len(p.parts) == 0 {
		panic("workload: profile has no archetypes")
	}
	e := &Emitter{b: sink, rng: rng}
	for e.Len() < n {
		for _, w := range p.parts {
			for k := 0; k < w.weight; k++ {
				w.arch.EmitIteration(e)
				if e.Len() >= n {
					break
				}
			}
			if e.Len() >= n {
				break
			}
		}
	}
}

// builderFunc constructs a profile's archetypes given fresh register and
// randomness resources. Profiles are registered as builders so every
// Generate call starts from identical initial state.
type builderFunc func(ra *RegAlloc, rng *xrand.Rand) *Profile

var registry = map[string]builderFunc{}

func register(name string, fn builderFunc) {
	if _, dup := registry[name]; dup {
		panic("workload: duplicate profile " + name)
	}
	registry[name] = fn
}

// Names returns the registered benchmark names in sorted order (the
// paper's twelve SPEC integer benchmarks).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName instantiates the named profile with a deterministic seed derived
// from the name and the given seed. It returns an error for unknown names.
func ByName(name string, seed uint64) (*Profile, *xrand.Rand, error) {
	fn, ok := registry[name]
	if !ok {
		return nil, nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	h := seed
	for _, c := range name {
		h = h*131 + uint64(c)
	}
	rng := xrand.New(h)
	return fn(NewRegAlloc(), rng), rng.Fork(), nil
}

// Generate is the package-level convenience: build the named profile and
// generate n instructions.
func Generate(name string, n int, seed uint64) (*trace.Trace, error) {
	p, rng, err := ByName(name, seed)
	if err != nil {
		return nil, err
	}
	return p.Generate(n, rng), nil
}

// GenerateChunked streams the named profile's trace into w — the exact
// instruction sequence Generate would build, emitted chunk by chunk with
// bounded memory. The caller owns w (and its Close); GenerateChunked
// surfaces the writer's sticky error.
func GenerateChunked(name string, n int, seed uint64, w *trace.Writer) error {
	p, rng, err := ByName(name, seed)
	if err != nil {
		return err
	}
	p.GenerateInto(w, n, rng)
	return w.Err()
}

// GenerateToFile streams the named profile's trace into a sealed CTR2
// store at path through durable.WriteFileAtomic, so an interrupted
// generation never leaves a half-written store behind.
func GenerateToFile(name string, n int, seed uint64, path string, opts trace.WriterOptions) error {
	return durable.WriteFileAtomic(path, func(out io.Writer) error {
		w, err := trace.NewWriter(out, opts)
		if err != nil {
			return err
		}
		if err := GenerateChunked(name, n, seed, w); err != nil {
			return err
		}
		return w.Close()
	})
}

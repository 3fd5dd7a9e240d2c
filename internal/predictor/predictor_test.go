package predictor

import (
	"math"
	"testing"
	"testing/quick"

	"clustersim/internal/xrand"
)

func TestBinaryOneInEightClassifiedCritical(t *testing.T) {
	// Fields: +8 on critical, -1 otherwise, threshold 8 — so a 1-in-8
	// critical instruction stays classified critical at steady state.
	b := NewDefaultBinary()
	pc := uint64(0x1000)
	for i := 0; i < 400; i++ {
		b.Train(pc, i%8 == 0)
	}
	if !b.Predict(pc) {
		t.Fatal("1-in-8 critical instruction not predicted critical")
	}
}

func TestBinaryRarelyCriticalNotClassified(t *testing.T) {
	b := NewDefaultBinary()
	pc := uint64(0x2000)
	for i := 0; i < 1000; i++ {
		b.Train(pc, i%40 == 0) // 1-in-40: well under the 1/8 threshold rate
	}
	if b.Predict(pc) {
		t.Fatal("1-in-40 critical instruction predicted critical")
	}
}

func TestBinaryNeverTrainedIsNotCritical(t *testing.T) {
	b := NewDefaultBinary()
	if b.Predict(0x5555) {
		t.Fatal("untrained PC predicted critical")
	}
}

func TestBinarySaturates(t *testing.T) {
	b := NewDefaultBinary()
	pc := uint64(0x3000)
	for i := 0; i < 100; i++ {
		b.Train(pc, true)
	}
	if !b.Predict(pc) {
		t.Fatal("always-critical not predicted critical")
	}
	// 63/8 ≈ 7.9: within 56 non-critical trainings it must drop below
	// threshold, never wrapping around.
	for i := 0; i < 56; i++ {
		b.Train(pc, false)
	}
	if b.Predict(pc) {
		t.Fatal("counter failed to decay below threshold")
	}
	for i := 0; i < 200; i++ {
		b.Train(pc, false) // must not underflow
	}
	if b.Predict(pc) {
		t.Fatal("counter underflowed")
	}
}

func TestBinaryReset(t *testing.T) {
	b := NewDefaultBinary()
	b.Train(0x10, true)
	b.Reset()
	if b.Predict(0x10) {
		t.Fatal("Reset did not clear counters")
	}
}

func TestLoCConvergesToFrequency(t *testing.T) {
	// The probabilistic 4-bit counter's expectation is 15f; averaging the
	// level over time should approximate the training frequency.
	r := xrand.New(42)
	for _, f := range []float64{0.1, 0.3, 0.5, 0.8, 0.95} {
		l := NewDefaultLoC(xrand.New(7))
		pc := uint64(0x4000)
		// Warm up.
		for i := 0; i < 2000; i++ {
			l.Train(pc, r.Bool(f))
		}
		// Measure the time-averaged level.
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			l.Train(pc, r.Bool(f))
			sum += l.Frac(pc)
		}
		got := sum / n
		if math.Abs(got-f) > 0.08 {
			t.Errorf("LoC for f=%v converged to %v", f, got)
		}
	}
}

func TestLoCExtremes(t *testing.T) {
	l := NewDefaultLoC(xrand.New(1))
	pc := uint64(0x6000)
	for i := 0; i < 500; i++ {
		l.Train(pc, true)
	}
	if l.Level(pc) != LoCLevels-1 {
		t.Fatalf("always-critical level = %d, want %d", l.Level(pc), LoCLevels-1)
	}
	for i := 0; i < 2000; i++ {
		l.Train(pc, false)
	}
	if l.Level(pc) != 0 {
		t.Fatalf("never-critical level = %d, want 0", l.Level(pc))
	}
}

func TestLoCLevelBounds(t *testing.T) {
	l := NewDefaultLoC(xrand.New(2))
	r := xrand.New(3)
	for i := 0; i < 50000; i++ {
		pc := uint64(r.Intn(64)) * 4
		l.Train(pc, r.Bool(0.5))
		lvl := l.Level(pc)
		if lvl < 0 || lvl >= LoCLevels {
			t.Fatalf("level %d out of range", lvl)
		}
	}
}

func TestExactFrac(t *testing.T) {
	e := NewExact()
	pc := uint64(0x100)
	for i := 0; i < 10; i++ {
		e.Train(pc, i < 3)
	}
	if got := e.Frac(pc); got != 0.3 {
		t.Fatalf("Frac = %v, want 0.3", got)
	}
	if e.Frac(0x9999) != 0 {
		t.Fatal("unseen PC must have Frac 0")
	}
	if e.Seen(pc) != 10 {
		t.Fatalf("Seen = %d, want 10", e.Seen(pc))
	}
}

func TestExactLevelQuantization(t *testing.T) {
	e := NewExact()
	pc := uint64(0x200)
	for i := 0; i < 100; i++ {
		e.Train(pc, true)
	}
	if e.Level(pc) != LoCLevels-1 {
		t.Fatalf("level of 100%% critical = %d", e.Level(pc))
	}
	e2 := NewExact()
	e2.Train(pc, false)
	if e2.Level(pc) != 0 {
		t.Fatalf("level of 0%% critical = %d", e2.Level(pc))
	}
}

func TestExactHistogram(t *testing.T) {
	e := NewExact()
	// pc A: 100% critical, 10 instances; pc B: 0%, 30 instances.
	for i := 0; i < 10; i++ {
		e.Train(0x1, true)
	}
	for i := 0; i < 30; i++ {
		e.Train(0x2, false)
	}
	h := e.Histogram(20)
	if len(h) != 20 {
		t.Fatalf("len = %d", len(h))
	}
	if math.Abs(h[19]-25) > 1e-9 { // 10/40 of dynamic instances at 100%
		t.Errorf("top bin = %v, want 25", h[19])
	}
	if math.Abs(h[0]-75) > 1e-9 {
		t.Errorf("bottom bin = %v, want 75", h[0])
	}
	var total float64
	for _, v := range h {
		total += v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("histogram sums to %v, want 100", total)
	}
}

func TestHistogramEmptyIsZero(t *testing.T) {
	h := NewExact().Histogram(20)
	for _, v := range h {
		if v != 0 {
			t.Fatal("empty histogram must be all zeros")
		}
	}
}

func TestPCsEnumeration(t *testing.T) {
	e := NewExact()
	e.Train(1, true)
	e.Train(2, false)
	e.Train(1, false)
	pcs := e.PCs()
	if len(pcs) != 2 {
		t.Fatalf("PCs = %v", pcs)
	}
}

func TestHashStaysInRange(t *testing.T) {
	mask := uint32(1<<DefaultBits - 1)
	if err := quick.Check(func(pc uint64) bool {
		return hash(pc, mask) <= mask
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBinary(0) },
		func() { NewBinary(29) },
		func() { NewLoC(0, xrand.New(1)) },
		func() { NewLoC(16, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkLoCTrain(b *testing.B) {
	l := NewDefaultLoC(xrand.New(1))
	for i := 0; i < b.N; i++ {
		l.Train(uint64(i%1024)*4, i%3 == 0)
	}
}

func TestExactCountsRoundTrip(t *testing.T) {
	e := NewExact()
	rng := xrand.New(3)
	for i := 0; i < 500; i++ {
		e.Train(uint64(rng.Intn(40))*4, rng.Intn(3) == 0)
	}
	back, err := ExactFromCounts(e.Counts())
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range e.PCs() {
		if back.Seen(pc) != e.Seen(pc) || back.Frac(pc) != e.Frac(pc) {
			t.Fatalf("pc %#x: round trip %d/%v, want %d/%v",
				pc, back.Seen(pc), back.Frac(pc), e.Seen(pc), e.Frac(pc))
		}
	}
	if len(back.PCs()) != len(e.PCs()) {
		t.Fatalf("round trip has %d PCs, want %d", len(back.PCs()), len(e.PCs()))
	}
	for _, bad := range []ExactCounts{
		{PC: []uint64{4}, Critical: []uint64{1}},
		{PC: []uint64{8, 4}, Critical: []uint64{0, 0}, Total: []uint64{1, 1}},
		{PC: []uint64{4, 4}, Critical: []uint64{0, 0}, Total: []uint64{1, 1}},
		{PC: []uint64{4}, Critical: []uint64{2}, Total: []uint64{1}},
		{PC: []uint64{4}, Critical: []uint64{0}, Total: []uint64{0}},
	} {
		if _, err := ExactFromCounts(bad); err == nil {
			t.Errorf("ExactFromCounts accepted %+v", bad)
		}
	}
}

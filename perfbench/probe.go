package main

import (
	"sort"
	"sync"
	"time"
)

// The reference machine is a shared VM. Neighbours contending for the
// physical core's caches slow this process by up to 1.7x for tens of
// seconds to minutes at a time, while a register-only loop keeps its
// speed (README.md, "Noise"). Raw host times then spread more across
// runs than any regression bound could tolerate.
//
// A speed probe measures that slowdown while a pass runs: at operation
// boundaries it times a fixed cache-bound kernel that never changes with
// the program. An end-to-end time is reported at the reference speed:
// its host time × probeRefMs / (mean kernel time over the same
// interval). Set-up is the exception: it holds no probe work and is
// reported in host time. The host times stay in the report's pass
// samples.

// probeRefMs is the kernel's time on the reference machine when no
// neighbour contends for its core (the fast end of the measured range).
const probeRefMs = 0.19

// probeTableLen is the kernel's working set in words: 256 KiB, which
// stays in the core's L2 between the kernel's warm-up and timed runs.
const probeTableLen = 32 << 10

// probeKernel runs the fixed kernel over table, a data-dependent walk
// with a branch on every load and a store on every step, and returns
// its time.
func probeKernel(table []uint64) time.Duration {
	mask := uint64(len(table) - 1)
	x := uint64(88172645463325252)
	var acc uint64
	start := time.Now()
	for i := 0; i < 20_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		if table[j]&1 == 0 {
			acc += x >> 3
		} else {
			acc ^= table[(j*7)&mask]
		}
		table[j] = acc
	}
	return time.Since(start)
}

// opSpan is one operation's host interval.
type opSpan struct{ start, end time.Time }

// opWindow is how far around an operation the probe samples that set
// its speed factor reach: wide enough to hold several samples even
// around the longest render, narrow next to how long a slowdown lasts.
const opWindow = 2 * time.Second

type probeSample struct {
	at  time.Time
	dur time.Duration
}

// speedProbe keeps every probe sample of a run. A nil *speedProbe
// probes nothing and reports factor 1.
type speedProbe struct {
	mu      sync.Mutex // serializes ticks from concurrent clients
	table   []uint64
	samples []probeSample
}

// tick runs the kernel once to bring its table into the cache, whatever
// the program left there, then times a second run.
func (p *speedProbe) tick() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.table == nil {
		p.table = make([]uint64, probeTableLen)
	}
	probeKernel(p.table)
	dur := probeKernel(p.table)
	p.samples = append(p.samples, probeSample{at: time.Now(), dur: dur})
}

// factor is probeRefMs over the kernel's mean time in [a, b], its
// slowest and fastest tenth of samples dropped so that a single hiccup
// (a page fault, a stop-the-world pause) does not move it: a host time
// in that interval times factor is the time at the reference speed. It
// is 1 when no sample falls in the interval.
func (p *speedProbe) factor(a, b time.Time) float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	var durs []float64
	for _, s := range p.samples {
		if !s.at.Before(a) && !s.at.After(b) {
			durs = append(durs, float64(s.dur)/1e6)
		}
	}
	p.mu.Unlock()
	if len(durs) == 0 {
		return 1
	}
	sort.Float64s(durs)
	cut := len(durs) / 10
	var sum float64
	for _, d := range durs[cut : len(durs)-cut] {
		sum += d
	}
	return probeRefMs / (sum / float64(len(durs)-2*cut))
}

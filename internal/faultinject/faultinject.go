// Package faultinject is a deterministic, seedable failpoint registry
// for chaos-testing the experiment engine's I/O paths. Call sites name a
// failpoint ("cache.read", "joblog.append", ...) and ask whether a
// fault fires there; when injection is disabled — the default — every
// helper returns on a single atomic load, so instrumented paths cost
// nothing in production.
//
// Faults are drawn from per-site xrand streams seeded from the global
// chaos seed and the site name, so a given (seed, rate) reproduces the
// same fault sequence at every site regardless of what other sites do.
// (Which goroutine observes the n-th fault of a site still depends on
// scheduling; the engine's chaos tests only require that faults never
// change results, not that they land on the same jobs.)
//
// Injection is enabled from the environment via EnableFromEnv
// (CLUSTERSIM_CHAOS_SEED / CLUSTERSIM_CHAOS_RATE), which the CLI and
// `clustersim serve` call at startup and which lets `go test` runs chaos
// an unmodified binary; tests may also call Enable directly.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/xrand"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// None means no fault fires.
	None Kind = iota
	// KindErr injects an I/O error (wrapping ErrInjected).
	KindErr
	// KindTruncate shortens the byte payload of a read or write,
	// simulating torn writes and truncated files.
	KindTruncate
	// KindLatency injects a short deterministic sleep on reads.
	KindLatency
	// KindPanic panics with an InjectedPanic value.
	KindPanic
)

// ErrInjected is the sentinel every injected I/O error wraps; callers
// and tests can identify injected failures with errors.Is.
var ErrInjected = errors.New("faultinject: injected I/O error")

// InjectedPanic is the value KindPanic panics with; recover sites use
// IsInjectedPanic to tell injected panics (retryable by design) from
// genuine bugs.
type InjectedPanic struct{ Site string }

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s", p.Site)
}

// IsInjectedPanic reports whether a recovered value came from MaybePanic.
func IsInjectedPanic(r any) bool {
	_, ok := r.(InjectedPanic)
	return ok
}

// Counts is a snapshot of faults injected since the last Reset.
type Counts struct {
	Errs      int64
	Truncates int64
	Latencies int64
	Panics    int64
}

// Total sums all fault classes.
func (c Counts) Total() int64 { return c.Errs + c.Truncates + c.Latencies + c.Panics }

type config struct {
	seed uint64
	rate float64
}

var (
	enabled atomic.Bool
	cfgMu   sync.Mutex
	cfg     config
	sites   sync.Map // site name -> *site

	nErr, nTrunc, nLatency, nPanic atomic.Int64
)

// site holds one failpoint's private deterministic stream.
type site struct {
	mu  sync.Mutex
	rng *xrand.Rand
}

// Enable turns injection on with the given seed and per-call fault
// probability (clamped to [0,1]). It resets every site stream and the
// fault counters, so Enable/Disable pairs give tests a clean slate.
func Enable(seed uint64, rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	cfgMu.Lock()
	cfg = config{seed: seed, rate: rate}
	cfgMu.Unlock()
	Reset()
	enabled.Store(rate > 0)
}

// Disable turns injection off; instrumented paths return to their
// single-atomic-load fast path.
func Disable() { enabled.Store(false) }

// Enabled reports whether injection is active.
func Enabled() bool { return enabled.Load() }

// Reset clears the per-site streams and fault counters (streams reseed
// lazily from the current config on next use).
func Reset() {
	sites.Range(func(k, _ any) bool { sites.Delete(k); return true })
	nErr.Store(0)
	nTrunc.Store(0)
	nLatency.Store(0)
	nPanic.Store(0)
}

// Snapshot returns the injected-fault counters.
func Snapshot() Counts {
	return Counts{
		Errs:      nErr.Load(),
		Truncates: nTrunc.Load(),
		Latencies: nLatency.Load(),
		Panics:    nPanic.Load(),
	}
}

// EnableFromEnv enables injection from CLUSTERSIM_CHAOS_SEED and
// CLUSTERSIM_CHAOS_RATE when both parse; it reports whether injection
// was enabled.
func EnableFromEnv() bool {
	seedStr, rateStr := os.Getenv("CLUSTERSIM_CHAOS_SEED"), os.Getenv("CLUSTERSIM_CHAOS_RATE")
	if seedStr == "" || rateStr == "" {
		return false
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return false
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || rate <= 0 {
		return false
	}
	Enable(seed, rate)
	return true
}

// siteHash folds a site name into a 64-bit FNV-1a value for stream
// seeding.
func siteHash(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// draw rolls the site's stream once: whether a fault fires and, if so, a
// uniform selector used to pick among the kinds the call site supports.
func draw(name string) (fire bool, sel uint64) {
	if !enabled.Load() {
		return false, 0
	}
	cfgMu.Lock()
	c := cfg
	cfgMu.Unlock()
	v, _ := sites.LoadOrStore(name, &site{})
	s := v.(*site)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng == nil {
		s.rng = xrand.New(c.seed ^ siteHash(name))
	}
	if !s.rng.Bool(c.rate) {
		return false, 0
	}
	return true, s.rng.Uint64()
}

// Err injects an I/O error at site with the configured probability.
func Err(site string) error {
	if !enabled.Load() {
		return nil
	}
	fire, _ := draw(site)
	if !fire {
		return nil
	}
	nErr.Add(1)
	return fmt.Errorf("%w at %s", ErrInjected, site)
}

// ReadFault perturbs a completed read at site: it may return an error,
// truncate the returned bytes (simulating a short or torn file), or add
// a small deterministic latency. On no fault it returns data unchanged.
func ReadFault(site string, data []byte) ([]byte, error) {
	if !enabled.Load() {
		return data, nil
	}
	fire, sel := draw(site)
	if !fire {
		return data, nil
	}
	switch sel % 3 {
	case 0:
		nErr.Add(1)
		return nil, fmt.Errorf("%w at %s (read)", ErrInjected, site)
	case 1:
		nTrunc.Add(1)
		if len(data) == 0 {
			return data, nil
		}
		return data[:int((sel/3)%uint64(len(data)))], nil
	default:
		nLatency.Add(1)
		time.Sleep(time.Duration(50+(sel/3)%450) * time.Microsecond)
		return data, nil
	}
}

// WriteFault perturbs a pending write at site: it may return an error
// (the write must not happen), or truncate the payload (a short write
// that "succeeds", leaving a torn entry for readers to detect). On no
// fault it returns data unchanged.
func WriteFault(site string, data []byte) ([]byte, error) {
	if !enabled.Load() {
		return data, nil
	}
	fire, sel := draw(site)
	if !fire {
		return data, nil
	}
	if sel%2 == 0 {
		nErr.Add(1)
		return nil, fmt.Errorf("%w at %s (write)", ErrInjected, site)
	}
	nTrunc.Add(1)
	if len(data) == 0 {
		return data, nil
	}
	return data[:int((sel/2)%uint64(len(data)))], nil
}

// MaybePanic panics with an InjectedPanic at site with the configured
// probability. Recover sites retry work that died to an injected panic.
func MaybePanic(site string) {
	if !enabled.Load() {
		return
	}
	fire, _ := draw(site)
	if !fire {
		return
	}
	nPanic.Add(1)
	panic(InjectedPanic{Site: site})
}

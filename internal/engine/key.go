package engine

import "fmt"

// schemaVersion is folded into every cache key. Bump it whenever the
// simulator, workload generators, or policies change behavior, so stale
// on-disk artifacts from older binaries can never satisfy new runs.
const schemaVersion = 1

// TraceKey identifies one generated benchmark trace. Two submissions
// with equal keys are guaranteed (by the deterministic workload
// generators) to describe byte-identical traces.
type TraceKey struct {
	Bench string
	Insts int
	Seed  uint64
}

// String returns the canonical form used for dedup.
func (k TraceKey) String() string {
	return fmt.Sprintf("v%d|trace|bench=%s|insts=%d|seed=%d",
		schemaVersion, k.Bench, k.Insts, k.Seed)
}

// SimKey identifies one (benchmark, cluster-config, policy-stack,
// forwarding-latency, seed) simulation. It is the unit of deduplication
// across figure drivers: Figures 4, 5 and 14 all submit the focused
// stack on the clustered configurations, and all of them resolve to the
// same keys.
type SimKey struct {
	Bench    string
	Insts    int
	Seed     uint64
	Fwd      int
	EpochLen int64
	Clusters int
	Stack    string
	// TrackExact marks runs that additionally record unlimited-precision
	// criticality frequencies. It is part of the key so a cached artifact
	// always carries exactly the instrumentation its key promises.
	TrackExact bool
	// Variant names a perturbation of Stack (an ablation sweep point) in
	// its canonical form; empty means the stack as is. Submitters
	// canonicalize before keying, so a perturbation that reproduces the
	// stack exactly keys as the stack itself.
	Variant string
}

// String returns the canonical form used for dedup and as the disk
// cache's key. An empty Variant is left out, so unperturbed keys read
// exactly as they did before the field existed.
func (k SimKey) String() string {
	s := fmt.Sprintf("v%d|sim|bench=%s|insts=%d|seed=%d|fwd=%d|epoch=%d|clusters=%d|stack=%s|exact=%t",
		schemaVersion, k.Bench, k.Insts, k.Seed, k.Fwd, k.EpochLen, k.Clusters, k.Stack, k.TrackExact)
	if k.Variant != "" {
		s += "|variant=" + k.Variant
	}
	return s
}

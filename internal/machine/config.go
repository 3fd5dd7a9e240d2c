// Package machine implements the trace-driven, cycle-level timing
// simulator of the paper's clustered superscalar processor (Figure 1 /
// Table 1): a monolithic front end feeding a partitioned execution core
// through an instruction steering stage, with distributed per-cluster
// scheduling windows and a global bypass network.
//
// The simulator records, for every dynamic instruction, the cycle of each
// pipeline event and the *last-arriving constraint* that determined it;
// the critpath package turns those records into the paper's critical-path
// attributions (Figure 5/6) without re-simulating.
package machine

import (
	"fmt"

	"clustersim/internal/cache"
	"clustersim/internal/isa"
)

// loadAgenCycles is the address-generation portion of a load's latency:
// the ISA's nominal load latency minus the default L1 hit time it bakes
// in. The machine composes a load's actual latency as this constant plus
// the configured cache's access latency, so a Config with a non-default
// L1.HitCycles is honored (and identical to the ISA latency on the
// defaults).
var loadAgenCycles = int64(isa.Load.Latency()) - int64(cache.L1Config().HitCycles)

// Config describes one machine configuration. Use NewConfig to partition
// the paper's Table 1 resources among a number of clusters.
type Config struct {
	// Clusters is the number of execution clusters (1 = monolithic).
	Clusters int
	// IssuePerCluster is each cluster's issue width.
	IssuePerCluster int
	// IntPerCluster, FPPerCluster and MemPerCluster bound the per-cycle,
	// per-cluster mix (Table 1; partial resources round up, so even a
	// 1-wide cluster has a memory port and an FP ALU).
	IntPerCluster, FPPerCluster, MemPerCluster int
	// WindowPerCluster is each cluster's scheduling window capacity.
	WindowPerCluster int

	ROBSize       int // reorder buffer entries (256)
	FetchWidth    int // front-end fetch bandwidth (8)
	DispatchWidth int // steering/dispatch bandwidth (8)
	CommitWidth   int // retirement bandwidth (8)
	PipelineDepth int // fetch-to-dispatch stages (13)

	// FwdLatency is the inter-cluster forwarding latency in cycles. The
	// paper models 1–4 and reports 2; Validate caps it at MaxFwdLatency.
	FwdLatency int

	// BypassPerCluster bounds how many produced values each cluster can
	// broadcast onto the global bypass network per cycle; 0 means
	// unlimited (the paper's assumption — it verifies communication
	// stays under ~0.25 values/instruction and leaves bandwidth limits
	// out of scope; this knob exists for the corresponding ablation).
	BypassPerCluster int

	// GshareBits sizes the branch predictor (16 bits of global history).
	GshareBits uint

	// L1 is the data cache geometry; the infinite L2 is folded into its
	// miss penalty.
	L1 cache.Config

	// SchedMode selects the scheduler's priority function.
	SchedMode SchedMode

	// GroupSteering makes the whole dispatch group steer against
	// start-of-cycle state: policies see neither the window occupancy
	// changes nor the producer placements of instructions steered earlier
	// in the same cycle (same-cycle producers appear with no known
	// cluster preference). This models the paper's Section 8 concern that
	// a circuit steering 8 instructions per cycle cannot serially account
	// for intra-cycle dependences, the way rename logic must.
	GroupSteering bool
}

// Totals of the monolithic machine (Table 1).
const (
	totalIssue  = 8
	totalInt    = 8
	totalFP     = 4
	totalMem    = 4
	totalWindow = 128
)

// NewConfig partitions the Table 1 machine among clusters (1, 2, 4 or 8),
// producing the paper's 1x8w, 2x4w, 4x2w and 8x1w configurations with a
// 2-cycle forwarding latency.
func NewConfig(clusters int) Config {
	if clusters < 1 || totalIssue%clusters != 0 {
		panic(fmt.Sprintf("machine: cluster count %d does not divide the 8-wide machine", clusters))
	}
	return Config{
		Clusters:         clusters,
		IssuePerCluster:  totalIssue / clusters,
		IntPerCluster:    ceilDiv(totalInt, clusters),
		FPPerCluster:     ceilDiv(totalFP, clusters),
		MemPerCluster:    ceilDiv(totalMem, clusters),
		WindowPerCluster: totalWindow / clusters,
		ROBSize:          256,
		FetchWidth:       8,
		DispatchWidth:    8,
		CommitWidth:      8,
		PipelineDepth:    13,
		FwdLatency:       2,
		GshareBits:       16,
		L1:               cache.L1Config(),
		SchedMode:        SchedAge,
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Clusters < 1:
		return fmt.Errorf("machine: need at least one cluster")
	case c.Clusters > MaxClusters:
		return fmt.Errorf("machine: %d clusters exceeds the %d-cluster limit", c.Clusters, MaxClusters)
	case c.IssuePerCluster < 1:
		return fmt.Errorf("machine: issue width per cluster must be positive")
	case c.IntPerCluster < 1 || c.FPPerCluster < 1 || c.MemPerCluster < 1:
		return fmt.Errorf("machine: every cluster needs at least one unit of each class")
	case c.WindowPerCluster < 1:
		return fmt.Errorf("machine: window per cluster must be positive")
	case c.ROBSize < c.Clusters*c.WindowPerCluster:
		return fmt.Errorf("machine: ROB (%d) smaller than aggregate window (%d)",
			c.ROBSize, c.Clusters*c.WindowPerCluster)
	case c.FetchWidth < 1 || c.DispatchWidth < 1 || c.CommitWidth < 1:
		return fmt.Errorf("machine: pipeline widths must be positive")
	case c.PipelineDepth < 1:
		return fmt.Errorf("machine: pipeline depth must be positive")
	case c.FwdLatency < 0:
		return fmt.Errorf("machine: forwarding latency must be non-negative")
	case c.FwdLatency > MaxFwdLatency:
		return fmt.Errorf("machine: forwarding latency %d exceeds the %d-cycle limit", c.FwdLatency, MaxFwdLatency)
	case c.BypassPerCluster < 0:
		return fmt.Errorf("machine: bypass bandwidth must be non-negative")
	case c.GshareBits == 0:
		return fmt.Errorf("machine: gshare predictor needs history bits")
	}
	return nil
}

// LoadHitLatency returns the total latency of an L1-hit load under this
// configuration: address generation plus the configured hit time. This is
// the latency the critpath MemLatency idealization reduces loads to.
func (c Config) LoadHitLatency() int64 {
	return loadAgenCycles + int64(c.L1.HitCycles)
}

// Name returns the paper's name for the configuration (e.g. "4x2w").
func (c Config) Name() string {
	return fmt.Sprintf("%dx%dw", c.Clusters, c.IssuePerCluster)
}

// SchedMode selects how each cluster's scheduler prioritizes ready
// instructions.
type SchedMode uint8

const (
	// SchedAge issues the oldest ready instruction first.
	SchedAge SchedMode = iota
	// SchedBinaryCritical gives predicted-critical instructions priority
	// over non-critical ones, then age (Fields' focused scheduling).
	SchedBinaryCritical
	// SchedLoC orders ready instructions by likelihood-of-criticality
	// level, then age (Section 4).
	SchedLoC
)

func (s SchedMode) String() string {
	switch s {
	case SchedAge:
		return "age"
	case SchedBinaryCritical:
		return "binary-critical"
	case SchedLoC:
		return "loc"
	}
	return fmt.Sprintf("SchedMode(%d)", uint8(s))
}

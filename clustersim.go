// Package clustersim is a library-level reproduction of Salverda &
// Zilles, "A Criticality Analysis of Clustering in Superscalar
// Processors" (MICRO 2005).
//
// It bundles a trace-driven, cycle-level simulator of clustered
// out-of-order superscalar processors, synthetic SPEC-int-like workload
// generators, the Fields et al. critical-path model with an online
// criticality detector, likelihood-of-criticality (LoC) predictors, the
// paper's steering/scheduling policies (dependence-based, focused, LoC,
// stall-over-steer, proactive load-balancing), and an idealized oracle
// list scheduler.
//
// Quick start:
//
//	tr, _ := clustersim.GenerateTrace("vpr", 200_000, 1)
//	sim, _ := clustersim.NewSim(clustersim.NewConfig(4), tr, clustersim.SimOptions{Policy: "focused"})
//	res := sim.Run()
//	fmt.Println(res.CPI())
//
// The experiment drivers that regenerate every figure of the paper live
// in internal/experiments and are exposed through cmd/clustersim.
package clustersim

import (
	"fmt"
	"io"

	"clustersim/internal/critpath"
	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
	"clustersim/internal/xrand"
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// Config describes a machine configuration (Table 1 partitioning).
	Config = machine.Config
	// Result summarizes one simulation run.
	Result = machine.Result
	// Trace is a dynamic instruction trace with dependence annotations.
	Trace = trace.Trace
	// CriticalPath is a critical-path analysis with cycle attribution.
	CriticalPath = critpath.Analysis
	// Breakdown attributes critical-path cycles to causes (Figure 5).
	Breakdown = critpath.Breakdown
	// ConsumerStats is the Section 6 producer/consumer analysis.
	ConsumerStats = critpath.ConsumerStats
	// SteerPolicy decides cluster assignment at dispatch.
	SteerPolicy = machine.SteerPolicy
	// SchedMode selects the per-cluster scheduling priority.
	SchedMode = machine.SchedMode
	// Schedule is an idealized list-scheduler output (Section 2.2).
	Schedule = listsched.Schedule
)

// Scheduling modes.
const (
	SchedAge            = machine.SchedAge
	SchedBinaryCritical = machine.SchedBinaryCritical
	SchedLoC            = machine.SchedLoC
)

// NewConfig partitions the paper's 8-wide machine among 1, 2, 4 or 8
// clusters (the 1x8w, 2x4w, 4x2w and 8x1w configurations).
func NewConfig(clusters int) Config { return machine.NewConfig(clusters) }

// Benchmarks returns the names of the twelve SPEC-int-like synthetic
// workloads.
func Benchmarks() []string { return workload.Names() }

// GenerateTrace synthesizes n dynamic instructions of the named
// benchmark, deterministically in seed.
func GenerateTrace(bench string, n int, seed uint64) (*Trace, error) {
	return workload.Generate(bench, n, seed)
}

// PolicyNames lists the steering policies NewPolicy accepts, in the
// paper's order of introduction.
func PolicyNames() []string {
	return []string{"depbased", "focused", "loc", "stall-over-steer", "proactive", "readybalance"}
}

// NewPolicy constructs a steering policy by name.
func NewPolicy(name string) (SteerPolicy, error) {
	switch name {
	case "depbased":
		return steer.DepBased{}, nil
	case "focused":
		return steer.Focused{}, nil
	case "loc":
		return steer.LoC{}, nil
	case "stall-over-steer", "stall":
		return &steer.StallOverSteer{}, nil
	case "proactive":
		return steer.NewProactive(), nil
	case "readybalance":
		// Extension beyond the paper: proactive load-balancing driven by
		// per-cluster ready-instruction counts (the conclusion's "view of
		// instruction readiness").
		return steer.NewReadyBalance(), nil
	}
	return nil, fmt.Errorf("clustersim: unknown policy %q (have %v)", name, PolicyNames())
}

// SimOptions configures NewSim.
type SimOptions struct {
	// Policy is one of PolicyNames(); default "focused".
	Policy string
	// Sched overrides the scheduling mode; by default it follows the
	// policy ("focused" uses binary-criticality scheduling, the LoC-based
	// policies use LoC scheduling, "depbased" uses age).
	Sched *SchedMode
	// Seed drives the LoC predictor's probabilistic updates.
	Seed uint64
	// TrackExact keeps unlimited-precision criticality frequencies for
	// LoCHistogram and ConsumerStats (small extra memory).
	TrackExact bool
	// EpochLen overrides the criticality-detector epoch length.
	EpochLen int64
}

// Sim couples a machine with criticality predictors and the online
// critical-path detector, wired the way the paper's pipeline is.
type Sim struct {
	m        *machine.Machine
	detector *critpath.Detector
	exact    *predictor.Exact
	ran      bool
}

// NewSim builds a simulator for cfg over tr.
func NewSim(cfg Config, tr *Trace, opt SimOptions) (*Sim, error) {
	if opt.Policy == "" {
		opt.Policy = "focused"
	}
	pol, err := NewPolicy(opt.Policy)
	if err != nil {
		return nil, err
	}
	if opt.Sched != nil {
		cfg.SchedMode = *opt.Sched
	} else {
		switch opt.Policy {
		case "depbased":
			cfg.SchedMode = machine.SchedAge
		case "focused":
			cfg.SchedMode = machine.SchedBinaryCritical
		default:
			cfg.SchedMode = machine.SchedLoC
		}
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	hooks := machine.Hooks{
		Binary:   predictor.NewDefaultBinary(),
		LoC:      predictor.NewDefaultLoC(xrand.New(seed)),
		EpochLen: opt.EpochLen,
	}
	det := critpath.NewDetector(hooks.Binary, hooks.LoC)
	var exact *predictor.Exact
	if opt.TrackExact {
		exact = predictor.NewExact()
		det.TrackExact(exact)
	}
	hooks.OnEpoch = det.OnEpoch
	m, err := machine.New(cfg, tr, pol, hooks)
	if err != nil {
		return nil, err
	}
	det.Bind(m)
	return &Sim{m: m, detector: det, exact: exact}, nil
}

// Run simulates the whole trace.
func (s *Sim) Run() Result {
	s.ran = true
	return s.m.Run()
}

// Machine exposes the underlying machine (events, config, trace).
func (s *Sim) Machine() *machine.Machine { return s.m }

// CriticalPath walks the completed run's critical path and attributes
// its cycles. Call after Run.
func (s *Sim) CriticalPath() (*CriticalPath, error) {
	if !s.ran {
		return nil, fmt.Errorf("clustersim: CriticalPath before Run")
	}
	return critpath.AnalyzeRun(s.m)
}

// ConsumerStats runs the Section 6 producer/consumer analysis. Requires
// SimOptions.TrackExact and a completed Run.
func (s *Sim) ConsumerStats() (ConsumerStats, error) {
	if s.exact == nil {
		return ConsumerStats{}, fmt.Errorf("clustersim: ConsumerStats requires TrackExact")
	}
	if !s.ran {
		return ConsumerStats{}, fmt.Errorf("clustersim: ConsumerStats before Run")
	}
	return critpath.AnalyzeConsumers(s.m.Trace(), s.exact), nil
}

// LoCHistogram returns the dynamic-instruction-weighted LoC distribution
// in percent per bin (Figure 8). Requires SimOptions.TrackExact.
func (s *Sim) LoCHistogram(bins int) ([]float64, error) {
	if s.exact == nil {
		return nil, fmt.Errorf("clustersim: LoCHistogram requires TrackExact")
	}
	return s.exact.Histogram(bins), nil
}

// Exact returns the unlimited-precision criticality tracker, or nil if
// the Sim was created without TrackExact.
func (s *Sim) Exact() *predictor.Exact { return s.exact }

// Slack computes every instruction's global slack (Fields et al. '02)
// for a completed run, plus its summary statistics.
func (s *Sim) Slack() ([]int64, critpath.SlackSummary, error) {
	if !s.ran {
		return nil, critpath.SlackSummary{}, fmt.Errorf("clustersim: Slack before Run")
	}
	slack, err := critpath.ComputeSlack(s.m)
	if err != nil {
		return nil, critpath.SlackSummary{}, err
	}
	return slack, critpath.SummarizeSlack(s.m, slack), nil
}

// WriteTimeline renders a readable pipeline diagram of instructions
// [from, to) of a completed run (at most 64 instructions).
func (s *Sim) WriteTimeline(w io.Writer, from, to int64) error {
	if !s.ran {
		return fmt.Errorf("clustersim: WriteTimeline before Run")
	}
	return machine.WriteTimeline(w, s.m, from, to)
}

// IdealizedSchedule list-schedules the trace of a completed monolithic
// run onto the given configuration with the Section 2.2 oracle priority,
// returning the idealized schedule the paper's Figure 2 is built from.
// The receiver must be a 1-cluster Sim that has Run. The schedule comes
// from the pooled listsched.Scheduler and is the caller's to keep.
func (s *Sim) IdealizedSchedule(target Config) (*Schedule, error) {
	if !s.ran {
		return nil, fmt.Errorf("clustersim: IdealizedSchedule before Run")
	}
	if s.m.Config().Clusters != 1 {
		return nil, fmt.Errorf("clustersim: IdealizedSchedule needs a monolithic (1-cluster) run, have %s",
			s.m.Config().Name())
	}
	in := listsched.FromMachineRun(s.m)
	sch := listsched.NewScheduler()
	defer sch.Recycle()
	return sch.Schedule(in, listsched.ConfigFor(target), listsched.NewOracle(in))
}

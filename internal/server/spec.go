package server

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"clustersim/internal/engine"
	"clustersim/internal/experiments"
	"clustersim/internal/workload"
)

// Spec is one experiment job submission: which figures/sweeps to run,
// over which workload slice, under which configuration grid. It is the
// HTTP mirror of experiments.Options plus a tenant identity — everything
// the spec names is deterministic, so two tenants submitting equal specs
// resolve to the same engine cache keys and simulate once.
type Spec struct {
	// Tenant identifies the submitting client for admission control and
	// weighted fair queueing. It is not part of the work's identity: the
	// engine's content-addressed caches are shared across tenants.
	Tenant string `json:"tenant"`
	// Experiments names the drivers to run, in order (e.g. "fig2",
	// "fig4"; see ExperimentNames).
	Experiments []string `json:"experiments"`
	// Benchmarks restricts the workload set; empty means the paper's
	// full twelve.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Insts is the dynamic instruction count per benchmark (0 means the
	// experiments default of 200k).
	Insts int `json:"insts,omitempty"`
	// Seed selects the workload seed (0 means 1).
	Seed uint64 `json:"seed,omitempty"`
	// Fwd is the inter-cluster forwarding latency (0 means 2).
	Fwd int `json:"fwd,omitempty"`
	// EpochLen overrides the criticality-detector epoch (0 means the
	// machine default).
	EpochLen int64 `json:"epoch_len,omitempty"`
	// ReplayWorkers requests an intra-job variant fan-out width for this
	// job; 0 lets the server pick a per-job share of the socket. The
	// server clamps it queue-aware (more concurrent jobs, narrower
	// fan-out). Deliberately EXCLUDED from Key(): the determinism
	// contract makes results byte-identical under any worker count, so
	// jobs differing only here must share cache entries and divergence
	// baselines.
	ReplayWorkers int `json:"replay_workers,omitempty"`
	// DeadlineSecs is the job's wall-clock deadline: if the job is still
	// running this many seconds after it starts, the stuck-job watchdog
	// cancels it into the terminal "deadline" state. 0 means the server
	// default; the server clamps requests to its configured maximum.
	// Excluded from Key() like ReplayWorkers: a deadline changes whether
	// a job finishes, never the bytes it produces.
	DeadlineSecs float64 `json:"deadline_secs,omitempty"`
}

// normalized returns the spec with the experiments-package defaults
// applied, so equal work always has an equal Key regardless of whether
// the client spelled the defaults out.
func (sp Spec) normalized() Spec {
	if sp.Insts <= 0 {
		sp.Insts = 200_000
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Fwd <= 0 {
		sp.Fwd = 2
	}
	if len(sp.Benchmarks) == 0 {
		sp.Benchmarks = workload.Names()
	}
	return sp
}

// Key is the tenant-independent identity of the spec's work: two specs
// with equal keys produce byte-identical result artifacts. The load
// generator uses it to pre-compute expected outputs for divergence
// checking.
func (sp Spec) Key() string {
	n := sp.normalized()
	return fmt.Sprintf("exps=%s|bench=%s|insts=%d|seed=%d|fwd=%d|epoch=%d",
		strings.Join(n.Experiments, ","), strings.Join(n.Benchmarks, ","),
		n.Insts, n.Seed, n.Fwd, n.EpochLen)
}

// options derives the experiments.Options for this spec (engine and
// context are attached by the runner).
func (sp Spec) options() experiments.Options {
	return experiments.Options{
		Benchmarks: sp.Benchmarks,
		Insts:      sp.Insts,
		Seed:       sp.Seed,
		Fwd:        sp.Fwd,
		EpochLen:   sp.EpochLen,
	}
}

// cost estimates the spec's work in simulated instructions, the unit the
// weighted fair queue charges tenants in. It intentionally overcounts
// cache hits — admission happens before the cache is consulted — but
// relative fairness only needs costs to be comparable across specs.
func (sp Spec) cost() float64 {
	n := sp.normalized()
	c := float64(n.Insts) * float64(len(n.Benchmarks)) * float64(len(n.Experiments))
	if c <= 0 {
		c = 1
	}
	return c
}

// experimentRegistry maps an experiment name to a driver invocation that
// returns the rendered table — the exact bytes `clustersim <name>`
// prints, which is what makes the serve-vs-local differential test
// byte-exact.
var experimentRegistry = map[string]func(experiments.Options) (string, error){
	"fig2":        render(experiments.Figure2),
	"fig2-attrib": render(experiments.AttributeFigure2),
	"fig4":        render(experiments.Figure4),
	"fig5":        render(experiments.Figure5),
	"fig6": func(o experiments.Options) (string, error) {
		r, err := experiments.Figure5(o)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		r.RenderFigure6(&buf)
		return buf.String(), nil
	},
	"fig8":             render(experiments.Figure8),
	"fig14":            render(experiments.Figure14),
	"fig15":            render(experiments.Figure15),
	"loc-oracle":       render(experiments.LoCOracle),
	"consumers":        render(experiments.Consumers),
	"fwd-sweep":        render(experiments.FwdSweep),
	"stall-sweep":      render(experiments.StallSweep),
	"slack":            render(experiments.SlackStudy),
	"detector-compare": render(experiments.DetectorCompare),
	"window-sweep":     render(experiments.WindowSweep),
	"bandwidth-sweep":  render(experiments.BandwidthSweep),
	"replication":      render(experiments.Replication),
	"icost":            render(experiments.ICost),
	"group-steer":      render(experiments.GroupSteer),
	"predictor-sweep":  render(experiments.PredictorSweep),
	"workloads":        render(experiments.Characterize),
}

// render adapts a driver returning a Render-able result to the registry
// shape.
func render[T interface{ Render(w io.Writer) }](drv func(experiments.Options) (T, error)) func(experiments.Options) (string, error) {
	return func(o experiments.Options) (string, error) {
		r, err := drv(o)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		r.Render(&buf)
		return buf.String(), nil
	}
}

// ExperimentNames returns the servable experiment names, sorted.
func ExperimentNames() []string {
	names := make([]string, 0, len(experimentRegistry))
	for name := range experimentRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RunLocal executes the spec directly on eng — no queue, no HTTP — and
// returns the artifacts a served job with the same spec produces. Load
// harnesses use it to pre-compute expected outputs for divergence
// checking.
func RunLocal(sp Spec, eng *engine.Engine) ([]ResultArtifact, error) {
	opts := sp.options()
	opts.Engine = eng
	arts := make([]ResultArtifact, 0, len(sp.Experiments))
	for _, name := range sp.Experiments {
		out, err := runExperiment(name, opts)
		if err != nil {
			return nil, fmt.Errorf("local %s: %w", name, err)
		}
		arts = append(arts, ResultArtifact{Experiment: name, Output: out})
	}
	return arts, nil
}

// runExperiment executes one named driver and returns its rendered
// output.
func runExperiment(name string, opts experiments.Options) (string, error) {
	fn, ok := experimentRegistry[name]
	if !ok {
		return "", fmt.Errorf("server: unknown experiment %q", name)
	}
	return fn(opts)
}

// validateSpec checks everything about a spec except tenant existence
// (which depends on server configuration). It returns a client-facing
// error message, empty when valid.
func validateSpec(sp Spec, maxInsts int) string {
	if sp.Tenant == "" {
		return "missing tenant"
	}
	if len(sp.Experiments) == 0 {
		return "no experiments requested"
	}
	for _, name := range sp.Experiments {
		if _, ok := experimentRegistry[name]; !ok {
			return fmt.Sprintf("unknown experiment %q (have: %s)", name, strings.Join(ExperimentNames(), " "))
		}
	}
	if sp.Insts < 0 {
		return "negative insts"
	}
	if maxInsts > 0 && sp.Insts > maxInsts {
		return fmt.Sprintf("insts %d exceeds the server limit %d", sp.Insts, maxInsts)
	}
	if sp.Fwd < 0 {
		return "negative forwarding latency"
	}
	if err := sp.options().Validate(); err != nil {
		return err.Error()
	}
	if sp.EpochLen < 0 {
		return "negative epoch length"
	}
	if sp.ReplayWorkers < 0 {
		return "negative replay workers"
	}
	if sp.DeadlineSecs < 0 {
		return "negative deadline"
	}
	known := map[string]bool{}
	for _, b := range workload.Names() {
		known[b] = true
	}
	for _, b := range sp.Benchmarks {
		if !known[b] {
			return fmt.Sprintf("unknown benchmark %q (have: %s)", b, strings.Join(workload.Names(), " "))
		}
	}
	return ""
}

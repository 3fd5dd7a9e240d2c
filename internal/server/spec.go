package server

import (
	"bytes"
	"fmt"
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
	// experiments default; see experiments.Options.WithDefaults).
	Insts int `json:"insts,omitempty"`
	// Seed selects the workload seed (0 means the default).
	Seed uint64 `json:"seed,omitempty"`
	// Fwd is the inter-cluster forwarding latency (0 means the default).
	Fwd int `json:"fwd,omitempty"`
	// EpochLen overrides the criticality-detector epoch (0 means the
	// machine default).
	EpochLen int64 `json:"epoch_len,omitempty"`
	// ReplayWorkers is accepted and ignored: a job's variant fan-out is
	// the engine's (engine.Config.ReplayWorkers, the server's
	// -replay-workers flag). Older clients send it, so it stays in the
	// wire format, and a negative value is still refused. It is
	// EXCLUDED from Key(): results are byte-identical under any worker
	// count, so jobs differing only here share cache entries and
	// divergence baselines.
	ReplayWorkers int `json:"replay_workers,omitempty"`
	// DeadlineSecs is the job's wall-clock deadline: if the job is still
	// running this many seconds after it starts, the stuck-job watchdog
	// cancels it into the terminal "deadline" state. 0 means the server
	// default; the server clamps requests to its configured maximum.
	// Excluded from Key() like ReplayWorkers: a deadline changes whether
	// a job finishes, never the bytes it produces.
	DeadlineSecs float64 `json:"deadline_secs,omitempty"`
}

// Key is the tenant-independent identity of the spec's work: two specs
// with equal keys produce byte-identical result artifacts. It keys the
// spec's options with the experiments-package defaults applied, so equal
// work has an equal Key whether or not the client spelled the defaults
// out; the server matches recovered jobs to resubmissions by it.
func (sp Spec) Key() string {
	o := sp.options()
	return fmt.Sprintf("exps=%s|bench=%s|insts=%d|seed=%d|fwd=%d|epoch=%d",
		strings.Join(sp.Experiments, ","), strings.Join(o.Benchmarks, ","),
		o.Insts, o.Seed, o.Fwd, o.EpochLen)
}

// options derives the experiments.Options for this spec, defaults
// applied (engine and context are attached by the runner).
func (sp Spec) options() experiments.Options {
	return experiments.Options{
		Benchmarks: sp.Benchmarks,
		Insts:      sp.Insts,
		Seed:       sp.Seed,
		Fwd:        sp.Fwd,
		EpochLen:   sp.EpochLen,
	}.WithDefaults()
}

// cost estimates the spec's work in simulated instructions, the unit the
// weighted fair queue charges tenants in. It intentionally overcounts
// cache hits — admission happens before the cache is consulted — but
// relative fairness only needs costs to be comparable across specs.
func (sp Spec) cost() float64 {
	o := sp.options()
	c := float64(o.Insts) * float64(len(o.Benchmarks)) * float64(len(sp.Experiments))
	if c <= 0 {
		c = 1
	}
	return c
}

// ExperimentNames returns the servable experiment names, sorted.
func ExperimentNames() []string {
	var names []string
	for _, e := range experiments.Registry {
		if e.Reach == experiments.Served {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	return names
}

// served looks up a registry entry the server runs.
func served(name string) (experiments.Experiment, bool) {
	e, ok := experiments.Lookup(name)
	return e, ok && e.Reach == experiments.Served
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

// runExperiment executes one served experiment and returns its rendered
// output: the exact bytes `clustersim <name>` prints, which is what makes
// the serve-vs-local differential test byte-exact.
func runExperiment(name string, opts experiments.Options) (string, error) {
	e, ok := served(name)
	if !ok {
		return "", fmt.Errorf("server: unknown experiment %q", name)
	}
	var buf bytes.Buffer
	if err := e.Render(opts, &buf); err != nil {
		return "", err
	}
	return buf.String(), nil
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
		if _, ok := served(name); !ok {
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

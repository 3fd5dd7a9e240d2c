// Package experiments contains one driver per table and figure of the
// paper's evaluation, built on the simulator, the critical-path analyzer
// and the idealized list scheduler. Every driver returns a structured
// result (for tests and benchmarks) that knows how to render itself as a
// terminal table mirroring the figure.
//
// Registry (registry.go) lists every experiment with its name, title
// and driver; DESIGN.md maps each to the paper section it reproduces.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"clustersim/internal/critpath"
	"clustersim/internal/engine"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
	"clustersim/internal/xrand"
)

// Options configures an experiment run.
type Options struct {
	// Benchmarks to run; empty means the paper's full twelve.
	Benchmarks []string
	// Insts is the dynamic instruction count per benchmark (the paper
	// uses 3×100M samples; the default here keeps the full suite
	// tractable on a laptop while preserving every trend).
	Insts int
	// Seed makes runs reproducible.
	Seed uint64
	// Fwd is the inter-cluster forwarding latency (the paper reports 2).
	Fwd int
	// EpochLen overrides the criticality-detector epoch.
	EpochLen int64
	// Engine executes and caches this run's jobs. Drivers sharing an
	// engine share traces and simulations: Figures 4, 5 and 14 all
	// submit the focused stack on the clustered configurations, and the
	// engine simulates each (benchmark, config, stack) exactly once.
	// Nil uses a process-wide default engine.
	Engine *engine.Engine
	// Ctx, when non-nil, is this run's context (the CLI's Ctrl-C and
	// -deadline, a server job's cancel): once it is cancelled the
	// drivers' pending engine work fails fast, without affecting other
	// runs sharing the same engine (one tenant's job on a server engine
	// cancels alone). Nil means the run is never cancelled.
	Ctx context.Context
}

// defaultEngine serves Options with no explicit engine, so library
// callers and tests share work without any wiring.
var (
	defaultEngineOnce sync.Once
	defaultEngine     *engine.Engine
)

// engine returns the options' engine, falling back to the default.
func (o Options) engine() *engine.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	defaultEngineOnce.Do(func() { defaultEngine = engine.New(engine.Config{}) })
	return defaultEngine
}

// WithDefaults returns o with every unset field at its default: the
// paper's twelve benchmarks, 200,000 instructions, seed 1 and a 2-cycle
// forwarding latency. Every experiment applies it, and the server keys specs
// by it.
func (o Options) WithDefaults() Options {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.Names()
	}
	if o.Insts <= 0 {
		o.Insts = 200_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Fwd <= 0 {
		o.Fwd = 2
	}
	return o
}

// Validate reports options the machine cannot simulate — a forwarding
// latency or instruction count past the engine's limits — as checked by
// machine.Admit on the baseline configuration every driver builds on.
func (o Options) Validate() error {
	o = o.WithDefaults()
	cfg := machine.NewConfig(1)
	cfg.FwdLatency = o.Fwd
	return machine.Admit(cfg, o.Insts)
}

// Stack names a cumulative policy configuration from Figure 14.
type Stack string

const (
	// StackFocused is the baseline: Fields et al.'s focused steering and
	// scheduling with the binary criticality predictor.
	StackFocused Stack = "focused"
	// StackLoC adds LoC-based scheduling and steering (the "l" bars).
	StackLoC Stack = "l"
	// StackStall adds stall-over-steer (the "s" bars).
	StackStall Stack = "s"
	// StackProactive adds proactive load-balancing (the "p" bars).
	StackProactive Stack = "p"
	// StackDepBased is plain dependence-based steering with the default
	// scheduler and no criticality machinery: the constraint-harvesting
	// run behind the idealized list-scheduling studies (Figure 2 and
	// friends) and the workload characterization baseline.
	StackDepBased Stack = "depbased"
)

// Stacks returns the Figure 14 progression in order.
func Stacks() []Stack { return []Stack{StackFocused, StackLoC, StackStall, StackProactive} }

// seedFor derives a per-(benchmark, use) deterministic seed.
func seedFor(base uint64, bench string, use string) uint64 {
	h := base
	for _, c := range bench + "/" + use {
		h = h*1099511628211 + uint64(c)
	}
	return h
}

// genTrace returns the benchmark trace for opts via the engine's
// content-addressed trace cache; every driver submitting the same
// (bench, insts, seed) shares one generation.
func genTrace(opts Options, bench string) (*trace.Trace, error) {
	eng := opts.engine()
	key := engine.TraceKey{Bench: bench, Insts: opts.Insts, Seed: opts.Seed}
	return eng.TraceCtx(opts.Ctx, key, func() (*trace.Trace, error) {
		return workload.Generate(bench, opts.Insts, opts.Seed)
	})
}

// parBench runs fn once per benchmark on the engine's bounded worker
// pool and returns the results in benchmark order. Every benchmark's
// work is seeded independently, so parallel and serial runs produce
// identical results. The lowest-indexed error wins; a panicking fn is
// recovered and surfaced as an error instead of deadlocking the pool.
func parBench[T any](opts Options, fn func(bench string) (T, error)) ([]T, error) {
	return engine.MapCtx(opts.Ctx, opts.engine(), opts.Benchmarks, func(_ int, bench string) (T, error) {
		return fn(bench)
	})
}

// simKey builds the content-addressed job key for one simulation.
func simKey(opts Options, bench string, clusters int, stack Stack, trackExact bool) engine.SimKey {
	return engine.SimKey{
		Bench:      bench,
		Insts:      opts.Insts,
		Seed:       opts.Seed,
		Fwd:        opts.Fwd,
		EpochLen:   opts.EpochLen,
		Clusters:   clusters,
		Stack:      string(stack),
		TrackExact: trackExact,
	}
}

// sim submits one (benchmark, clusters, stack) simulation job to the
// engine, as a one-variant batch. Identical jobs submitted by different
// figures simulate once.
func sim(opts Options, bench string, clusters int, stack Stack, trackExact bool) (engine.Artifact, error) {
	arts, err := simVariants(opts, bench, stackVariants(stack, clusters), trackExact)
	if err != nil {
		return engine.Artifact{}, err
	}
	return arts[0], nil
}

// Full analyses — the interaction lattice and slack on top of the walk —
// are computed for exactly the two runs whose readers take those
// products: ICost reads the lattice on focused 8x1w and SlackStudy the
// slack on focused 4x2w. Every other analysis is walk-only.
const (
	icostClusters = 8
	slackClusters = 4
)

// analysis submits one (benchmark, clusters, stack) run to the engine and
// returns its cached critical-path analysis and the run's artifact.
// Figures 5, 6 and 14 read only the walk, but Figure 5 and Figure 14 also
// analyze the two runs ICost and SlackStudy read, so those keys are Full
// whoever asks first: the engine caches values, not machines, and a
// walk-only entry there would make ICost and SlackStudy simulate those
// runs again. Each analysis happens once per key, and in any process with
// a warm disk cache, zero times.
//
// The analysis is looked up before the artifact: its job caches the
// run's Result under the sim key, so the second lookup hits. The other
// order would simulate twice, because a Result alone cannot be analyzed.
func analysis(opts Options, bench string, clusters int, stack Stack) (engine.CritSummary, engine.Artifact, error) {
	key := engine.AnalysisKey{
		Sim:  simKey(opts, bench, clusters, stack, false),
		Full: stack == StackFocused && (clusters == icostClusters || clusters == slackClusters),
	}
	cs, err := opts.engine().AnalysisCtx(opts.Ctx, key, simulate(opts, bench, clusters, stack, false))
	if err != nil {
		return engine.CritSummary{}, engine.Artifact{}, err
	}
	art, err := sim(opts, bench, clusters, stack, false)
	return cs, art, err
}

// buildStack constructs the machine variant for one (benchmark,
// clusters, stack, ablation) job — configuration, policy, hooks and, for
// criticality stacks, the online detector bound by its Setup — without
// running anything, plus the exact tracker the detector feeds (nil
// unless trackExact; never for depbased). Everything in it is
// determined by (opts, bench, clusters, stack, ab, trackExact): the
// purity contract the engine's caching relies on. ab perturbs the
// stack; an axis the stack has no use for is an error, not a no-op, so
// no two keys can name one machine.
func buildStack(opts Options, bench string, clusters int, stack Stack, ab Ablation, trackExact bool) (machine.Variant, *predictor.Exact, error) {
	cfg := machine.NewConfig(clusters)
	cfg.FwdLatency = opts.Fwd
	hooks := machine.Hooks{EpochLen: opts.EpochLen}

	if stack == StackDepBased {
		if ab != (Ablation{}) {
			return machine.Variant{}, nil, fmt.Errorf("experiments: ablation %q on the %s stack", ab, stack)
		}
		return machine.Variant{Config: cfg, Pol: steer.DepBased{}, Hooks: hooks}, nil, nil
	}
	if err := ab.check(stack, trackExact); err != nil {
		return machine.Variant{}, nil, err
	}
	if ab.Window != 0 {
		cfg.WindowPerCluster = ab.Window
	}
	cfg.BypassPerCluster = ab.BypassLimit
	cfg.GroupSteering = ab.GroupSteer
	bits := uint(predictor.DefaultBits)
	if ab.PredictorBits != 0 {
		bits = ab.PredictorBits
	}

	var pol machine.SteerPolicy
	switch stack {
	case StackFocused:
		cfg.SchedMode = machine.SchedBinaryCritical
		pol = steer.Focused{}
	case StackLoC:
		cfg.SchedMode = machine.SchedLoC
		pol = steer.LoC{}
	case StackStall:
		cfg.SchedMode = machine.SchedLoC
		pol = &steer.StallOverSteer{Threshold: ab.StallThreshold}
	case StackProactive:
		cfg.SchedMode = machine.SchedLoC
		pol = steer.NewProactive()
		if ab.ReadyBalance {
			pol = steer.NewReadyBalance()
		}
	default:
		return machine.Variant{}, nil, fmt.Errorf("experiments: unknown stack %q", stack)
	}
	// The binary predictor stays attached on every stack so Figure 6's
	// predicted-critical attribution is meaningful everywhere.
	hooks.Binary = predictor.NewBinary(bits)
	if stack != StackFocused {
		locSeed := "loc"
		if ab.LoCSeed != "" {
			locSeed = ab.LoCSeed
		}
		hooks.LoC = predictor.NewLoC(bits, xrand.New(seedFor(opts.Seed, bench, locSeed)))
	}

	v := machine.Variant{Config: cfg, Pol: pol}
	var exact *predictor.Exact
	switch ab.Detector {
	case DetectorGraph:
		det := critpath.NewDetector(hooks.Binary, hooks.LoC)
		if trackExact {
			exact = predictor.NewExact()
			det.TrackExact(exact)
		}
		hooks.OnEpoch = det.OnEpoch
		v.Setup = det.Bind
	case DetectorToken:
		det := critpath.NewTokenDetector(hooks.Binary, hooks.LoC, xrand.New(seedFor(opts.Seed, bench, "tok")))
		hooks.OnCommitInst = det.OnCommit
		v.Setup = det.Bind
	}
	v.Hooks = hooks
	return v, exact, nil
}

// simulate is the engine job body behind an analysis or a harvest of
// one (benchmark, clusters, stack) simulation: a one-variant batch whose
// live machine derive reads before the batch recycles it. trackExact
// additionally records unlimited-precision criticality frequencies.
// Everything the job does is determined by (opts, bench, clusters,
// stack, trackExact).
func simulate(opts Options, bench string, clusters int, stack Stack, trackExact bool) engine.Run {
	return func(derive func(*machine.Machine) error) (engine.Artifact, error) {
		arts, err := runBatch(opts, bench, stackVariants(stack, clusters), trackExact, derive)
		if err != nil {
			return engine.Artifact{}, err
		}
		return arts[0], nil
	}
}

// simVariant is one simulation of a benchmark's sweep: a cluster count,
// a policy stack and its ablation.
type simVariant struct {
	clusters int
	stack    Stack
	ab       Ablation
}

// stackVariants is the cluster sweep of one unperturbed stack.
func stackVariants(stack Stack, clusters ...int) []simVariant {
	vs := make([]simVariant, len(clusters))
	for i, k := range clusters {
		vs[i] = simVariant{clusters: k, stack: stack}
	}
	return vs
}

// simVariants submits every variant of one benchmark's sweep as a single
// batch: cached variants are served individually under their usual
// SimKeys, and whatever remains is computed by one runBatch call. The
// returned artifacts align with vs.
func simVariants(opts Options, bench string, vs []simVariant, trackExact bool) ([]engine.Artifact, error) {
	// Canonical ablations only: a perturbation that reproduces its stack
	// builds, and keys, as the stack itself.
	vs = slices.Clone(vs)
	keys := make([]engine.SimKey, len(vs))
	for i := range vs {
		vs[i].ab = vs[i].ab.canonical(vs[i].clusters)
		keys[i] = simKey(opts, bench, vs[i].clusters, vs[i].stack, trackExact)
		keys[i].Variant = vs[i].ab.String()
	}
	return opts.engine().SimVariantsCtx(opts.Ctx, keys, func(miss []int) ([]engine.Artifact, error) {
		todo := make([]simVariant, len(miss))
		for j, i := range miss {
			todo[j] = vs[i]
		}
		return runBatch(opts, bench, todo, trackExact, nil)
	})
}

// runBatch simulates vs over bench's trace as one fused
// machine.SimulateVariants call, which decodes the trace, builds the
// producer index and trains the shared front-end once for the whole
// batch, and returns the artifacts aligned with vs. derive, when
// non-nil, reads each variant's live machine before the batch recycles
// it. The replays fan out over the engine's replay workers: results are
// byte-identical under any fan-out.
func runBatch(opts Options, bench string, vs []simVariant, trackExact bool, derive func(*machine.Machine) error) ([]engine.Artifact, error) {
	tr, err := genTrace(opts, bench)
	if err != nil {
		return nil, err
	}
	variants := make([]machine.Variant, len(vs))
	arts := make([]engine.Artifact, len(vs))
	for i, v := range vs {
		if variants[i], arts[i].Exact, err = buildStack(opts, bench, v.clusters, v.stack, v.ab, trackExact); err != nil {
			return nil, err
		}
	}
	eng := opts.engine()
	stats, err := machine.SimulateVariants(tr, variants, eng.ReplayWorkers(), func(i int, m *machine.Machine, res machine.Result) error {
		arts[i].Res = res
		if derive == nil {
			return nil
		}
		return derive(m)
	})
	if err != nil {
		return nil, err
	}
	eng.NoteReplay(stats)
	return arts, nil
}

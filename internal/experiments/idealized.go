package experiments

import (
	"fmt"

	"clustersim/internal/engine"
	"clustersim/internal/listsched"
	"clustersim/internal/machine"
)

// schedSpec names one idealized-schedule variant of a harvest run: the
// clustered resource model, the scheduler's forwarding latency, the
// priority source by name, and whether the scheduler may replicate
// producers (footnote 4). The priority is resolved deterministically
// from the harvest artifact (the purity rule engine.SchedKey documents),
// so a spec fully identifies its schedule.
type schedSpec struct {
	clusters  int
	fwd       int
	pri       string
	replicate bool
}

// config derives the list-scheduler resource model for the spec.
func (sp schedSpec) config() listsched.Config {
	mc := machine.NewConfig(sp.clusters)
	mc.FwdLatency = sp.fwd
	return listsched.ConfigFor(mc)
}

// schedPriority resolves a spec's named priority against the harvest:
// the oracle comes from the scheduler input itself, the LoC and binary
// priorities from the run's exact criticality tracker.
func schedPriority(name string, oracle *listsched.Oracle, h *engine.Harvest) (listsched.Priority, error) {
	switch name {
	case PriOracle:
		return oracle, nil
	case PriLoC16:
		return listsched.NewLoCPriority(h.Exact, 16)
	case PriLoCUnlimited:
		return listsched.NewLoCPriority(h.Exact, 0)
	case PriBinary:
		return listsched.NewBinaryPriority(h.Exact, 0)
	}
	return nil, fmt.Errorf("experiments: unknown schedule priority %q", name)
}

// idealSchedules returns summaries for the given schedule variants of
// one harvest run, positionally aligned with specs, via the engine's
// content-addressed schedule cache. On a warm cache nothing simulates
// and nothing is rescheduled; on misses the engine's harvest of the run
// (simulated at most once while it stays cached) feeds one pooled
// Scheduler: each priority name resolves once, so the scheduler pops
// each priority's issue order once and places every missing plain
// variant along it (ScheduleVariants), and the missing replicated
// variants likewise (ScheduleReplicated). The LoC and binary priorities
// need the run's exact tracker, so their callers pass trackExact.
func idealSchedules(opts Options, bench string, stack Stack, trackExact bool, specs []schedSpec) ([]engine.SchedSummary, error) {
	hk := simKey(opts, bench, 1, stack, trackExact)
	keys := make([]engine.SchedKey, len(specs))
	for i, sp := range specs {
		keys[i] = engine.SchedKey{Harvest: hk, Config: sp.config(), Pri: sp.pri, Replicate: sp.replicate}
	}
	return opts.engine().SchedulesCtx(opts.Ctx, keys, func(miss []int) ([]engine.SchedSummary, error) {
		h, err := opts.engine().HarvestCtx(opts.Ctx, hk, simulate(opts, bench, 1, stack, trackExact))
		if err != nil {
			return nil, err
		}
		in := h.In
		oracle := listsched.NewOracle(in)
		pris := map[string]listsched.Priority{}
		var plain, repl []listsched.Variant
		var plainAt, replAt []int // out positions of each kind
		for j, i := range miss {
			pri, ok := pris[specs[i].pri]
			if !ok {
				if pri, err = schedPriority(specs[i].pri, oracle, h); err != nil {
					return nil, err
				}
				pris[specs[i].pri] = pri
			}
			v := listsched.Variant{Config: keys[i].Config, Pri: pri}
			if specs[i].replicate {
				repl, replAt = append(repl, v), append(replAt, j)
			} else {
				plain, plainAt = append(plain, v), append(plainAt, j)
			}
		}
		summarize := func(s *listsched.Schedule) engine.SchedSummary {
			return engine.SchedSummary{
				Insts:       in.Trace.Len(),
				Makespan:    s.Makespan,
				CrossEdges:  s.CrossEdges,
				DyadicCross: s.DyadicCross,
			}
		}
		out := make([]engine.SchedSummary, len(miss))
		sch := listsched.NewScheduler()
		defer sch.Recycle()
		if len(plain) > 0 {
			scheds, err := sch.ScheduleVariants(in, plain)
			if err != nil {
				return nil, err
			}
			for k, j := range plainAt {
				out[j] = summarize(scheds[k])
			}
		}
		if len(repl) > 0 {
			scheds, err := sch.ScheduleReplicated(in, repl)
			if err != nil {
				return nil, err
			}
			for k, j := range replAt {
				out[j] = summarize(&scheds[k].Schedule)
				out[j].Replicas = int64(len(scheds[k].Replicas))
			}
		}
		return out, nil
	})
}

// oracleSweepSpecs is the Figure 2 variant set: the monolithic baseline
// plus every clustered configuration, all under the oracle priority at
// forwarding latency fwd.
func oracleSweepSpecs(fwd int) []schedSpec {
	specs := make([]schedSpec, 0, 1+len(clusterCounts))
	specs = append(specs, schedSpec{clusters: 1, fwd: fwd, pri: PriOracle})
	for _, k := range clusterCounts {
		specs = append(specs, schedSpec{clusters: k, fwd: fwd, pri: PriOracle})
	}
	return specs
}

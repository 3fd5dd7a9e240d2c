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
// (simulated at most once while it stays cached) feeds a single pooled
// fused ScheduleVariants call over the shared dependence structure for
// every missing plain variant; missing replicated variants run the
// replicating scheduler on the same input. The LoC and binary
// priorities need the run's exact tracker, so their callers pass
// trackExact.
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
		summarize := func(s *listsched.Schedule) engine.SchedSummary {
			return engine.SchedSummary{
				Insts:       in.Trace.Len(),
				Makespan:    s.Makespan,
				CrossEdges:  s.CrossEdges,
				DyadicCross: s.DyadicCross,
			}
		}
		out := make([]engine.SchedSummary, len(miss))
		var variants []listsched.Variant
		var plain []int // out positions of the fused variants
		for j, i := range miss {
			pri, err := schedPriority(specs[i].pri, oracle, h)
			if err != nil {
				return nil, err
			}
			if specs[i].replicate {
				rs, err := listsched.RunReplicated(in, keys[i].Config, pri)
				if err != nil {
					return nil, err
				}
				out[j] = summarize(&rs.Schedule)
				out[j].Replicas = int64(len(rs.Replicas))
				continue
			}
			variants = append(variants, listsched.Variant{Config: keys[i].Config, Pri: pri})
			plain = append(plain, j)
		}
		if len(variants) == 0 {
			return out, nil
		}
		sch := listsched.NewScheduler()
		defer sch.Recycle()
		scheds, err := sch.ScheduleVariants(in, variants)
		if err != nil {
			return nil, err
		}
		for k, j := range plain {
			out[j] = summarize(scheds[k])
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

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
func schedPriority(name string, h *engine.Harvest) (listsched.Priority, error) {
	switch name {
	case PriOracle:
		return listsched.NewOracle(h.In), nil
	case PriLoC16:
		return listsched.NewLoCPriority(h.Exact, 16)
	case PriLoCUnlimited:
		return listsched.NewLoCPriority(h.Exact, 0)
	case PriBinary:
		return listsched.NewBinaryPriority(h.Exact, 0)
	}
	return nil, fmt.Errorf("experiments: unknown schedule priority %q", name)
}

// orderPopped, when set (tests only), is called with the benchmark and
// priority name each time idealSchedules pops an issue order, that is,
// resolves a priority whose order the harvest does not hold.
var orderPopped func(bench, pri string)

// idealSchedules returns summaries for the given schedule variants of
// one harvest run, positionally aligned with specs, via the engine's
// content-addressed schedule cache. On a warm cache nothing simulates
// and nothing is rescheduled. On misses the engine's harvest of the run
// (simulated at most once while it stays cached, and shared by every
// forwarding latency of the 1-cluster run) feeds one pooled Scheduler:
// first the missing plain variants (ScheduleVariants), then the missing
// replicated ones (ScheduleReplicated). Each variant places along the
// issue order its priority name has memoized on the harvest; a name
// without one resolves its priority once (the oracle is built only
// then), its order is popped once, and the harvest keeps it for every
// later batch of the run. The LoC and binary priorities need the run's
// exact tracker, so their callers pass trackExact.
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
		pris := map[string]listsched.Priority{}
		variant := func(sp schedSpec, cfg listsched.Config) (listsched.Variant, error) {
			v := listsched.Variant{Config: cfg, Order: h.Order(sp.pri)}
			if v.Order != nil {
				return v, nil
			}
			pri, ok := pris[sp.pri]
			if !ok {
				var err error
				if pri, err = schedPriority(sp.pri, h); err != nil {
					return v, err
				}
				pris[sp.pri] = pri
				if orderPopped != nil {
					orderPopped(bench, sp.pri)
				}
			}
			v.Pri = pri
			return v, nil
		}
		summarize := func(s *listsched.Schedule) engine.SchedSummary {
			return engine.SchedSummary{
				Insts:       h.In.Trace.Len(),
				Makespan:    s.Makespan,
				CrossEdges:  s.CrossEdges,
				DyadicCross: s.DyadicCross,
			}
		}
		out := make([]engine.SchedSummary, len(miss))
		sch := listsched.NewScheduler()
		defer sch.Recycle()
		for _, replicate := range []bool{false, true} {
			var vs []listsched.Variant
			var at []int // positions in miss of vs
			for j, i := range miss {
				if specs[i].replicate != replicate {
					continue
				}
				v, err := variant(specs[i], keys[i].Config)
				if err != nil {
					return nil, err
				}
				vs, at = append(vs, v), append(at, j)
			}
			if len(vs) == 0 {
				continue
			}
			if replicate {
				scheds, err := sch.ScheduleReplicated(h.In, vs)
				if err != nil {
					return nil, err
				}
				for k, j := range at {
					out[j] = summarize(&scheds[k].Schedule)
					out[j].Replicas = int64(len(scheds[k].Replicas))
				}
			} else {
				scheds, err := sch.ScheduleVariants(h.In, vs)
				if err != nil {
					return nil, err
				}
				for k, j := range at {
					out[j] = summarize(scheds[k])
				}
			}
			for k, j := range at {
				if ord := sch.PoppedOrder(k); ord != nil {
					h.KeepOrder(specs[miss[j]].pri, ord)
				}
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

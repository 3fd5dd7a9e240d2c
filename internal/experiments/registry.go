package experiments

import "io"

// Reach records where a registry entry runs.
type Reach int

const (
	// Served entries run over the HTTP job API, in `clustersim all` and
	// in the -report document.
	Served Reach = iota
	// Batch entries run in `clustersim all` and -report, not over HTTP.
	Batch
	// NamedOnly entries run only when named on the command line.
	NamedOnly
)

// Experiment is one registry entry: the name the CLI and the server
// accept, the report heading, and a renderer that runs the driver and
// writes its table.
type Experiment struct {
	Name   string
	Title  string
	Reach  Reach
	Render func(Options, io.Writer) error
}

// Registry lists every experiment once, in report order: paper figures
// first, then the in-text studies, then ablations and extensions. The
// CLI's usage, `all`, argument lookup and -report, and the server's
// validation and runner all read it.
var Registry = []Experiment{
	{"config", "Table 1 — machine configurations", Batch,
		func(_ Options, w io.Writer) error { ConfigTable(w); return nil }},
	{"workloads", "Workload characterization", Served, rendered(Characterize)},
	{"fig2", "Figure 2 — idealized list scheduling", Served, rendered(Figure2)},
	{"fig2-attrib", "Section 2.2 — convergent-dataflow attribution", Served, rendered(AttributeFigure2)},
	{"fig4", "Figure 4 — focused steering & scheduling", Served, rendered(Figure4)},
	{"fig5", "Figure 5 — critical-path breakdown", Served, rendered(Figure5)},
	// fig6 re-runs Figure5; the engine answers its runs from cache.
	{"fig6", "Figure 6 — contention and forwarding events", Served,
		func(o Options, w io.Writer) error {
			r, err := Figure5(o)
			if err != nil {
				return err
			}
			r.RenderFigure6(w)
			return nil
		}},
	{"fig8", "Figure 8 — LoC distribution", Served, rendered(Figure8)},
	{"fig14", "Figure 14 — the three policies", Served, rendered(Figure14)},
	{"fig14-detail", "Figure 14 — the three policies, per benchmark", NamedOnly,
		func(o Options, w io.Writer) error {
			r, err := Figure14(o)
			if err != nil {
				return err
			}
			r.Render(w)
			r.RenderPerBench(w)
			return nil
		}},
	{"fig15", "Figure 15 — achieved vs available ILP", Served, rendered(Figure15)},
	{"loc-oracle", "Section 4 — list-scheduler knowledge study", Served, rendered(LoCOracle)},
	{"consumers", "Section 6 — producer/consumer analysis", Served, rendered(Consumers)},
	{"slack", "Slack analysis (Fields '02)", Served, rendered(SlackStudy)},
	{"icost", "Interaction costs (Fields '03)", Served, rendered(ICost)},
	{"detector-compare", "Detectors — epoch-graph vs token-passing", Served, rendered(DetectorCompare)},
	{"group-steer", "Section 8 — steering-circuit complexity", Served, rendered(GroupSteer)},
	{"fwd-sweep", "Forwarding-latency sensitivity", Served, rendered(FwdSweep)},
	{"stall-sweep", "Stall-threshold ablation", Served, rendered(StallSweep)},
	{"window-sweep", "Window-partition ablation", Served, rendered(WindowSweep)},
	{"bandwidth-sweep", "Bypass-bandwidth ablation", Served, rendered(BandwidthSweep)},
	{"predictor-sweep", "Predictor-capacity ablation", Served, rendered(PredictorSweep)},
	{"replication", "Footnote 4 — instruction replication", Served, rendered(Replication)},
	{"future-work", "Future work — readiness-aware balancing", Batch, rendered(FutureWork)},
}

// Lookup returns the registry entry called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// rendered adapts a driver whose result renders itself to the registry's
// Render shape.
func rendered[T interface{ Render(io.Writer) }](drv func(Options) (T, error)) func(Options, io.Writer) error {
	return func(o Options, w io.Writer) error {
		r, err := drv(o)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}
}

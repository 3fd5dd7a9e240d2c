package machine

import (
	"sync"

	"clustersim/internal/trace"
)

// pool recycles Machine allocation backbones (event log, cluster state,
// broadcast rings) across runs. A simulation at paper scale
// allocates megabytes of per-instruction event records; engine jobs churn
// through thousands of such runs, so reusing them removes the dominant
// allocation source from the experiment hot path.
var pool = sync.Pool{New: func() any { return new(Machine) }}

// NewPooled is New drawing its storage from a process-wide pool: the
// returned machine's slices are recycled from earlier runs when their
// capacities fit. Call Recycle when done with the machine and everything
// reachable from it (Events, Trace).
func NewPooled(cfg Config, tr *trace.Trace, pol SteerPolicy, hooks Hooks) (*Machine, error) {
	m := pool.Get().(*Machine)
	if err := m.Reinit(cfg, tr, pol, hooks); err != nil {
		Recycle(m)
		return nil, err
	}
	return m, nil
}

// Recycle returns m to the pool. The caller must drop every reference
// into m — including Events() slices and anything retaining them — before
// calling: a recycled machine may be rebound and rerun by any later
// NewPooled. Recycling a machine that did not come from NewPooled is
// allowed (the pool only grows). Recycle(nil) is a no-op.
func Recycle(m *Machine) {
	if m == nil {
		return
	}
	// Unpin everything the pool should not keep alive.
	m.tr = nil
	m.pol = nil
	m.binary, m.loc = nil, nil
	m.onEpoch, m.onCommitInst = nil, nil
	m.viewBuf = SteerView{producers: m.viewBuf.producers[:0]}
	m.profile, m.graph, m.kern, m.fr = nil, nil, nil, nil
	pool.Put(m)
}

package engine

import (
	"context"
	"fmt"
	"time"

	"clustersim/internal/critpath"
	"clustersim/internal/machine"
)

// analysisVersion versions the derived-analysis schema. It is folded into
// the analysis cache key (alongside schemaVersion), so changing what a
// CritSummary contains — or how critpath computes it — invalidates cached
// analyses without touching the simulation artifacts they derive from.
const analysisVersion = 1

// CritSummary is the cacheable critical-path analysis of one simulation:
// the Figure 5 breakdown, the Figure 6 event counters, the full
// interaction-cost lattice, and the slack distribution. It is a pure
// value derived deterministically from the run, so it is cached alongside
// the run's own artifacts (memory and disk) and shared by every driver
// that needs any part of it — Figure 5, Figure 6, the icost table and the
// slack study stop recomputing each other's walks.
type CritSummary struct {
	Breakdown critpath.Breakdown

	// Figure 6 event counts from the walk.
	ContentionCritical int64
	ContentionOther    int64
	FwdLoadBal         int64
	FwdDyadic          int64
	FwdOther           int64

	// Matrix is the full 2^4 interaction-cost lattice (one fused replay).
	Matrix critpath.InteractionMatrix

	// Slack summarizes the global-slack distribution; SlackHist bins it
	// (see critpath.SlackBuckets).
	Slack     critpath.SlackSummary
	SlackHist [8]int64
}

// Interaction returns the legacy forwarding/contention pairwise analysis.
func (cs *CritSummary) Interaction() critpath.InteractionCosts {
	return cs.Matrix.Interaction()
}

// analysisCanon derives the analysis cache key from the simulation key.
func analysisCanon(key SimKey) string {
	return fmt.Sprintf("%s|analysis=v%d", key.String(), analysisVersion)
}

// AnalysisCtx returns the critical-path analysis for key's run,
// computing it at most once per process (and at most once per CacheDir
// across processes). On a miss the analysis job simulates with run,
// analyzes the live machine with a pooled critpath.Analyzer, and
// recycles it. The run's artifact is cached under key's sim entry
// exactly as a SimCtx miss would cache it, so a SimCtx of key after its
// AnalysisCtx hits. Once ctx is cancelled this submission's misses fail
// fast without simulating or analyzing, while other submissions of the
// same engine are untouched; a nil ctx is never cancelled.
func (e *Engine) AnalysisCtx(ctx context.Context, key SimKey, run Run) (CritSummary, error) {
	canon := analysisCanon(key)
	cached := func(ent *entry) (any, bool) { return ent.crit, ent.crit != nil }
	v, err := e.doOnce(ctx, canon, e.cAnaHit, cached, func() (any, error) {
		if e.diskAvailable() {
			if cs, ok := e.disk.loadAnalysis(canon); ok {
				e.cAnaDiskHit.Inc()
				e.mu.Lock()
				e.mem.putAnalysis(canon, cs)
				e.mu.Unlock()
				return cs, nil
			}
		}
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		e.cAnaMiss.Inc()
		var cs *CritSummary
		_, err := e.simulate(ctx, key, run, func(m *machine.Machine) (err error) {
			start := time.Now()
			if cs, err = computeCritSummary(m); err == nil {
				e.tAna.Observe(time.Since(start))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.mem.putAnalysis(canon, cs)
		e.mu.Unlock()
		if e.diskAvailable() {
			e.disk.storeAnalysis(canon, cs)
		}
		return cs, nil
	})
	if err != nil {
		return CritSummary{}, err
	}
	return *v.(*CritSummary), nil
}

// computeCritSummary runs every analysis pass over a finished machine
// with one pooled analyzer: the backward walk, the fused 16-scenario
// interaction replay, and the slack relaxation.
func computeCritSummary(m *machine.Machine) (*CritSummary, error) {
	az := critpath.NewAnalyzer()
	defer az.Recycle()
	a, err := az.AnalyzeRun(m)
	if err != nil {
		return nil, err
	}
	cs := &CritSummary{
		Breakdown:          a.Breakdown,
		ContentionCritical: a.ContentionCritical,
		ContentionOther:    a.ContentionOther,
		FwdLoadBal:         a.FwdLoadBal,
		FwdDyadic:          a.FwdDyadic,
		FwdOther:           a.FwdOther,
	}
	if cs.Matrix, err = az.InteractionMatrix(m); err != nil {
		return nil, err
	}
	slack, err := critpath.ComputeSlack(m)
	if err != nil {
		return nil, err
	}
	cs.Slack = critpath.SummarizeSlack(m, slack)
	cs.SlackHist = critpath.HistogramSlack(slack)
	return cs, nil
}

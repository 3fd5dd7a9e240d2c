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
const analysisVersion = 2

// CritSummary is the cacheable critical-path analysis of one simulation:
// the Figure 5 breakdown and the Figure 6 event counters from the
// last-arriving-edge walk, plus, for Full keys only, the interaction-cost
// lattice and the slack summary. It is a pure value derived
// deterministically from the run, so it is cached alongside the run's own
// artifacts (memory and disk) and shared by every experiment that analyzes
// the same key.
type CritSummary struct {
	Breakdown critpath.Breakdown

	// Figure 6 event counts from the walk.
	ContentionCritical int64
	ContentionOther    int64
	FwdLoadBal         int64
	FwdDyadic          int64
	FwdOther           int64

	// Matrix is the full 2^4 interaction-cost lattice (one fused replay)
	// and Slack summarizes the global-slack distribution. Both are
	// computed for Full keys only and nil in walk-only entries, so
	// reading one that was never computed fails instead of reading zeros.
	Matrix *critpath.InteractionMatrix `json:",omitempty"`
	Slack  *critpath.SlackSummary      `json:",omitempty"`
}

// AnalysisKey identifies one critical-path analysis: the run it walks
// and how much it computes. A walk-only analysis (Full false) runs the
// last-arriving-edge walk; a Full one adds the 16-scenario interaction
// lattice and the slack relaxation. Depth is part of the canonical key,
// so a walk-only entry never answers a Full request.
type AnalysisKey struct {
	Sim  SimKey
	Full bool
}

// String returns the canonical form used for dedup and as the disk
// cache's key.
func (k AnalysisKey) String() string {
	depth := "walk"
	if k.Full {
		depth = "full"
	}
	return fmt.Sprintf("%s|analysis=v%d|depth=%s", k.Sim.String(), analysisVersion, depth)
}

// AnalysisCtx returns the critical-path analysis that key names,
// computing it at most once per process (and at most once per CacheDir
// across processes). On a miss the analysis job simulates with run,
// analyzes the live machine with a pooled critpath.Analyzer, and
// recycles it. The run's artifact is cached under key.Sim's entry
// exactly as a SimCtx miss would cache it, so a SimCtx of key.Sim after
// its AnalysisCtx hits. Once ctx is cancelled this submission's misses
// fail fast without simulating or analyzing, while other submissions of
// the same engine are untouched; a nil ctx is never cancelled.
func (e *Engine) AnalysisCtx(ctx context.Context, key AnalysisKey, run Run) (CritSummary, error) {
	cs, err := e.analyses.one(ctx, key, func() (cs *CritSummary, err error) {
		_, err = e.simulate(key.Sim, run, func(m *machine.Machine) (err error) {
			start := time.Now()
			if cs, err = computeCritSummary(m, key.Full); err == nil {
				e.tAna.Observe(time.Since(start))
			}
			return err
		})
		return cs, err
	})
	if err != nil {
		return CritSummary{}, err
	}
	return *cs, nil
}

// computeCritSummary analyzes a finished machine with one pooled
// analyzer: the backward walk always, and for full analyses the fused
// 16-scenario interaction replay and the slack relaxation as well.
func computeCritSummary(m *machine.Machine, full bool) (*CritSummary, error) {
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
	if !full {
		return cs, nil
	}
	matrix, err := az.InteractionMatrix(m)
	if err != nil {
		return nil, err
	}
	slack, err := az.Slack(m)
	if err != nil {
		return nil, err
	}
	cs.Matrix, cs.Slack = &matrix, &slack
	return cs, nil
}

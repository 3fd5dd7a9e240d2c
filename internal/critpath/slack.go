package critpath

import (
	"fmt"
	"math"
	"slices"

	"clustersim/internal/machine"
)

// Slack analysis (Fields, Bodik & Hill, ISCA'02), which Section 4 of the
// paper contrasts with likelihood of criticality: global slack is the
// number of cycles an instruction's completion could be delayed without
// lengthening the whole execution. The paper argues slack is hard to use
// as a *static* property because different dynamic instances of one
// instruction have wildly different slack (a branch has zero slack when
// mispredicted and window-sized slack otherwise); the statistics below
// quantify exactly that.

// ComputeSlack returns the global slack, in cycles, of every committed
// instruction of a finished run: lct(E(i)) − complete(i), where lct is
// the latest completion time that would not delay the final commit,
// computed by a backward relaxation over the full recorded constraint
// graph (all dependence, pipeline, window and misprediction edges — not
// just the last-arriving ones). The returned slice is freshly allocated.
func ComputeSlack(m *machine.Machine) ([]int64, error) {
	return new(Analyzer).computeSlack(m)
}

// Slack computes the slack summary of a finished run with the
// analyzer's pooled storage: equal to SummarizeSlack(m, ComputeSlack(m))
// bit for bit, without allocating once the analyzer has seen a run as
// long.
func (az *Analyzer) Slack(m *machine.Machine) (SlackSummary, error) {
	slack, err := az.computeSlack(m)
	if err != nil {
		return SlackSummary{}, err
	}
	return az.summarizeSlack(m, slack), nil
}

// computeSlack is ComputeSlack over the analyzer's storage: the replay's
// arrival arrays double as the latest-completion arrays, and the returned
// slice aliases the analyzer until its next slack pass or Recycle.
func (az *Analyzer) computeSlack(m *machine.Machine) ([]int64, error) {
	ev := m.Events()
	n := len(ev)
	if n == 0 {
		return nil, fmt.Errorf("critpath: empty run")
	}
	if ev[n-1].Commit <= 0 {
		return nil, fmt.Errorf("critpath: run not complete")
	}
	cfg := m.Config()
	tr := m.Trace()

	const inf = int64(math.MaxInt64 / 4)
	az.arrD, az.arrE, az.arrC = grow(az.arrD, n), grow(az.arrE, n), grow(az.arrC, n)
	lctD, lctE, lctC := az.arrD, az.arrE, az.arrC
	for i := range lctD {
		lctD[i] = inf
		lctE[i] = inf
		lctC[i] = inf
	}
	lctC[n-1] = ev[n-1].Commit

	relax := func(target *int64, v int64) {
		if v < *target {
			*target = v
		}
	}

	// Each node contributes two kinds of in-edges to the relaxation:
	// structural edges with minimal weights (dataflow, pipeline depth,
	// in-order constraints — what *must* hold in any execution), and the
	// node's recorded last-arriving edge with its exact observed weight.
	// The latter keeps the true critical chain tight (zero slack along
	// it, matching the walker), while the former lets off-path work show
	// its real tolerance.
	prodBuf := az.prodBuf
	for i := n - 1; i >= 0; i-- {
		e := &ev[i]

		// In-edges of C(i).
		relax(&lctE[i], lctC[i]-1) // commit >= complete + 1
		if i > 0 {
			relax(&lctC[i-1], lctC[i]) // in-order commit (structural)
			if e.Commit != e.Complete+1 {
				// Last-arriving: blocked behind the previous commit.
				relax(&lctC[i-1], lctC[i]-(e.Commit-ev[i-1].Commit))
			}
		}

		// In-edges of E(i).
		lat := e.Complete - e.Issue
		relax(&lctD[i], lctE[i]-1-lat) // complete >= dispatch + 1 + lat (structural)
		prodBuf = tr.Producers(i, prodBuf[:0])
		for _, p := range prodBuf {
			w := lat
			if ev[p].Cluster != e.Cluster {
				w += ev[p].RemoteAvail - ev[p].Complete
			}
			relax(&lctE[p], lctE[i]-w)
		}
		if e.CritProducer != machine.Unset {
			// Last-arriving operand, exact (includes contention wait).
			relax(&lctE[e.CritProducer], lctE[i]-(e.Complete-ev[e.CritProducer].Complete))
		} else {
			relax(&lctD[i], lctE[i]-(e.Complete-e.Dispatch))
		}

		// In-edges of D(i).
		if i > 0 {
			relax(&lctD[i-1], lctD[i]) // in-order dispatch (structural)
		}
		if e.FetchReason == machine.FetchRedirect && e.FetchBlocker != machine.Unset {
			// branch resolve -> refetch -> dispatch PipelineDepth later
			relax(&lctE[e.FetchBlocker], lctD[i]-int64(cfg.PipelineDepth)-1)
		}
		if i >= cfg.FetchWidth {
			relax(&lctD[i-cfg.FetchWidth], lctD[i]-1) // fetch bandwidth
		}
		if i >= cfg.ROBSize {
			relax(&lctC[i-cfg.ROBSize], lctD[i]) // ROB recycling
		}
		// Last-arriving dispatch edge, exact.
		switch e.DispatchReason {
		case machine.DispPipeline:
			if e.FetchReason == machine.FetchRedirect && e.FetchBlocker != machine.Unset {
				relax(&lctE[e.FetchBlocker], lctD[i]-(e.Dispatch-ev[e.FetchBlocker].Complete))
			} else if e.FetchBlocker != machine.Unset {
				relax(&lctD[e.FetchBlocker], lctD[i]-(e.Dispatch-ev[e.FetchBlocker].Dispatch))
			}
		case machine.DispWidth:
			if e.DispatchBlocker >= 0 {
				relax(&lctD[e.DispatchBlocker], lctD[i]-(e.Dispatch-ev[e.DispatchBlocker].Dispatch))
			}
		case machine.DispROB:
			if e.DispatchBlocker >= 0 {
				relax(&lctC[e.DispatchBlocker], lctD[i]-(e.Dispatch-ev[e.DispatchBlocker].Commit))
			}
		case machine.DispWindow:
			if e.DispatchBlocker >= 0 {
				b := e.DispatchBlocker
				relax(&lctE[b], lctD[i]-(e.Dispatch-ev[b].Issue)-(ev[b].Complete-ev[b].Issue))
			}
		}
	}

	az.prodBuf = prodBuf
	az.slack = grow(az.slack, n)
	slack := az.slack
	for i := range slack {
		s := lctE[i] - ev[i].Complete
		if s < 0 {
			s = 0 // rounding of approximated edges; clamp
		}
		if s > inf/2 {
			s = inf / 2
		}
		slack[i] = s
	}
	return slack, nil
}

// SlackSummary aggregates a run's slack distribution and its per-static-
// instruction variability.
type SlackSummary struct {
	MeanSlack   float64
	ZeroFrac    float64 // slack == 0: the critical and near-critical core
	GEFwdFrac   float64 // slack >= the forwarding latency: tolerates one hop
	GE10Frac    float64 // slack >= 10 cycles: tolerates several hops
	MedianSlack int64

	// StaticStdDev is the dynamic-instance-weighted mean, over static
	// instructions, of the per-PC slack standard deviation — the paper's
	// reason slack resists a static summary.
	StaticStdDev float64
	// BimodalBranchFrac is the fraction of mispredicted-branch instances
	// with zero slack (the paper: "branches, when mispredicted, have no
	// slack; when predicted correctly their slack is very large").
	BimodalBranchFrac float64
}

// SummarizeSlack computes SlackSummary for a finished run. Equal inputs
// give bit-identical summaries.
func SummarizeSlack(m *machine.Machine, slack []int64) SlackSummary {
	return new(Analyzer).summarizeSlack(m, slack)
}

// summarizeSlack is SummarizeSlack over the analyzer's storage: the
// sorted copy, the per-instruction group numbers and the per-group
// accumulators are reused across runs.
func (az *Analyzer) summarizeSlack(m *machine.Machine, slack []int64) SlackSummary {
	ev := m.Events()
	tr := m.Trace()
	cfg := m.Config()
	n := len(slack)
	var s SlackSummary
	if n == 0 {
		return s
	}

	az.sorted = append(az.sorted[:0], slack...)
	slices.Sort(az.sorted)
	s.MedianSlack = az.sorted[n/2]

	// Static instructions are numbered in first-seen order, which the
	// trace fixes, so every floating-point sum below runs in one order and
	// the summary is bit-reproducible (walking a map would not be).
	if az.group == nil {
		az.group = map[uint64]int32{}
	}
	clear(az.group)
	group := az.group
	az.groupOf = grow(az.groupOf, n)
	groupOf := az.groupOf
	count, mean := az.count[:0], az.mean[:0]
	var sum float64
	var zero, geFwd, ge10 int
	var misBr, misBrZero int
	for i := 0; i < n; i++ {
		sum += float64(slack[i])
		if slack[i] == 0 {
			zero++
		}
		if slack[i] >= int64(cfg.FwdLatency) {
			geFwd++
		}
		if slack[i] >= 10 {
			ge10++
		}
		g, ok := group[tr.Insts[i].PC]
		if !ok {
			g = int32(len(count))
			group[tr.Insts[i].PC] = g
			count = append(count, 0)
			mean = append(mean, 0)
		}
		groupOf[i] = g
		count[g]++
		mean[g] += float64(slack[i])
		if ev[i].Mispredicted {
			misBr++
			if slack[i] == 0 {
				misBrZero++
			}
		}
	}
	s.MeanSlack = sum / float64(n)
	s.ZeroFrac = float64(zero) / float64(n)
	s.GEFwdFrac = float64(geFwd) / float64(n)
	s.GE10Frac = float64(ge10) / float64(n)
	if misBr > 0 {
		s.BimodalBranchFrac = float64(misBrZero) / float64(misBr)
	}

	az.count, az.mean = count, mean
	for g := range mean {
		mean[g] /= float64(count[g])
	}
	az.varsum = grow(az.varsum, len(count))
	varsum := az.varsum
	clear(varsum)
	for i, g := range groupOf {
		d := float64(slack[i]) - mean[g]
		varsum[g] += d * d
	}
	var weighted, weight float64
	for g, c := range count {
		if c < 8 {
			continue
		}
		sd := math.Sqrt(varsum[g] / float64(c))
		weighted += sd * float64(c)
		weight += float64(c)
	}
	if weight > 0 {
		s.StaticStdDev = weighted / weight
	}
	return s
}

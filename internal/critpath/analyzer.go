package critpath

import (
	"fmt"
	"sync"

	"clustersim/internal/isa"
	"clustersim/internal/machine"
)

// Analyzer holds reusable analysis state: the walk result (with its
// OnPath bitset), the fused-replay arrival arrays, producer scratch, and
// the slack pass's buffers.
// It is the analysis-side analogue of machine.NewPooled — experiment jobs
// churn through thousands of walks and replays, and recycling the arrays
// removes the three trace-length []int64 (and one []bool) allocations
// every replay and walk used to pay.
//
// An Analyzer is not safe for concurrent use. Results returned by its
// methods alias its pooled storage where documented; copy anything that
// must outlive the next call or Recycle.
type Analyzer struct {
	analysis Analysis // walk result; OnPath words reused across walks

	// Fused-replay state: arrival times of the D/E/C nodes for every
	// (instruction, scenario), laid out instruction-major so one
	// instruction's scenarios share a cache line.
	arrD, arrE, arrC []int64
	prodBuf          []int32 // producer scratch (trace CSR traversal)

	// Per-scenario scratch of the replay kernel. The keep arrays hold
	// all-ones (component active) or all-zeros (component idealized) so
	// the kernel selects each scenario's variant with an AND instead of a
	// data-dependent branch.
	cl       []int64 // contention + latency under each scenario's zeroing
	runtimes []int64 // final commit cycle per scenario
	fwdKeep  []int64
	contKeep []int64
	memKeep  []int64
	brKeep   []int64

	// Slack-pass scratch (the relaxation itself reuses arrD/arrE/arrC):
	// each instruction's slack, a sorted copy for the median, and the
	// per-static-instruction grouping with its accumulators.
	slack, sorted []int64
	group         map[uint64]int32
	groupOf       []int32
	count         []int32
	mean, varsum  []float64
}

// analyzerPool recycles Analyzers process-wide, like the machine pool.
var analyzerPool = sync.Pool{New: func() any { return new(Analyzer) }}

// NewAnalyzer returns an Analyzer drawing its storage from a process-wide
// pool. Call Recycle when done with it and every result it returned.
func NewAnalyzer() *Analyzer {
	return analyzerPool.Get().(*Analyzer)
}

// Recycle returns the analyzer to the pool. The caller must drop every
// reference to results returned by the analyzer's methods first: a
// recycled analyzer may be handed out and reused by any later
// NewAnalyzer.
func (az *Analyzer) Recycle() {
	analyzerPool.Put(az)
}

// Analyze walks the critical path of [from, to), like the package-level
// Analyze but reusing the analyzer's storage. The returned Analysis (and
// its OnPath bitset) aliases that storage: it is valid until the next
// Analyze call or Recycle.
func (az *Analyzer) Analyze(m *machine.Machine, from, to int64) (*Analysis, error) {
	if err := walk(m, from, to, &az.analysis); err != nil {
		return nil, err
	}
	return &az.analysis, nil
}

// AnalyzeRun walks the whole run with pooled storage.
func (az *Analyzer) AnalyzeRun(m *machine.Machine) (*Analysis, error) {
	return az.Analyze(m, 0, int64(len(m.Events())))
}

// ReplayScenarios computes the idealized runtime of every zero-set in a
// single forward pass over the event log and returns one runtime (final
// commit cycle) per scenario, in input order. It is the batched
// equivalent of calling SimulatedTime once per zero-set — the differential
// tests pin exact equality — but traverses the constraint graph (and the
// trace's producer lists) once, with all per-scenario state pooled.
// The returned slice is freshly allocated and safe to retain.
func (az *Analyzer) ReplayScenarios(m *machine.Machine, zeros []ZeroSet) ([]int64, error) {
	if err := az.replay(m, zeros); err != nil {
		return nil, err
	}
	out := make([]int64, len(zeros))
	copy(out, az.runtimes)
	return out, nil
}

// InteractionMatrix computes the full 2^4 zero-set lattice over {Fwd,
// Contention, MemLatency, BrMispredict} in one fused pass and derives
// every pairwise interaction cost.
func (az *Analyzer) InteractionMatrix(m *machine.Machine) (InteractionMatrix, error) {
	var zs [NumScenarios]ZeroSet
	for mask := range zs {
		zs[mask] = MaskZeroSet(mask)
	}
	var im InteractionMatrix
	if err := az.replay(m, zs[:]); err != nil {
		return im, err
	}
	base := az.runtimes[0]
	for mask := 0; mask < NumScenarios; mask++ {
		im.Runtime[mask] = az.runtimes[mask]
		im.Cost[mask] = base - az.runtimes[mask]
	}
	for i := 0; i < NumComponents; i++ {
		for j := 0; j < NumComponents; j++ {
			if i == j {
				im.Pair[i][j] = im.Cost[1<<i]
				continue
			}
			im.Pair[i][j] = im.Cost[1<<i|1<<j] - im.Cost[1<<i] - im.Cost[1<<j]
		}
	}
	return im, nil
}

// grow returns s resized to n, reusing capacity. Contents are undefined.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// keepMask is all-ones when the component stays active and all-zeros
// when the scenario idealizes it, so `raw & keep` selects the variant
// without a branch.
func keepMask(zeroed bool) int64 {
	if zeroed {
		return 0
	}
	return -1
}

// replay is the fused kernel: one forward longest-path pass computing all
// scenarios' arrival times. It fills az.runtimes (one entry per zero-set).
//
// The arithmetic per scenario is exactly SimulatedTime's; fusion buys the
// speed — one event-log pass, one producer-list traversal per instruction
// shared by every scenario, no per-call allocation (the arrays need no
// zeroing because the forward pass writes each row before any later
// instruction reads it). The inner loops select each scenario's zeroed
// variant with AND masks instead of branches, and the rare fetch-side /
// dispatch-blocker edges are normalized to one (row, delta) pair outside
// the scenario loop so the steady-state path stays tight.
func (az *Analyzer) replay(m *machine.Machine, zeros []ZeroSet) error {
	ev := m.Events()
	n := len(ev)
	if n == 0 || ev[n-1].Commit <= 0 {
		return fmt.Errorf("critpath: run not complete")
	}
	S := len(zeros)
	az.runtimes = grow(az.runtimes, S)
	if S == 0 {
		return nil
	}
	cfg := m.Config()
	tr := m.Trace()
	hitLat := cfg.LoadHitLatency()

	az.arrD = grow(az.arrD, n*S)
	az.arrE = grow(az.arrE, n*S)
	az.arrC = grow(az.arrC, n*S)
	az.cl = grow(az.cl, S)
	az.fwdKeep = grow(az.fwdKeep, S)
	az.contKeep = grow(az.contKeep, S)
	az.memKeep = grow(az.memKeep, S)
	az.brKeep = grow(az.brKeep, S)
	for s, z := range zeros {
		az.fwdKeep[s] = keepMask(z.Fwd)
		az.contKeep[s] = keepMask(z.Contention)
		az.memKeep[s] = keepMask(z.MemLatency)
		az.brKeep[s] = keepMask(z.BrMispredict)
	}
	arrD, arrE, arrC := az.arrD, az.arrE, az.arrC
	cl := az.cl[:S:S]
	fwdKeep := az.fwdKeep[:S:S]
	contKeep := az.contKeep[:S:S]
	memKeep := az.memKeep[:S:S]
	brKeep := az.brKeep[:S:S]

	depth := int64(cfg.PipelineDepth)
	for i := 0; i < n; i++ {
		e := &ev[i]
		row := i * S
		dRow := arrD[row : row+S : row+S]
		eRow := arrE[row : row+S : row+S]
		cRow := arrC[row : row+S : row+S]

		// Decompose the dispatch/operand-to-complete delay once; each
		// scenario selects its zeroed variant via the keep masks
		// (contention drops to 0, loads drop to the configured hit time).
		contRaw := e.Issue - e.Ready
		latMem := e.Complete - e.Issue
		var memExtra int64
		if tr.Insts[i].Op == isa.Load && latMem > hitLat {
			memExtra = latMem - hitLat
			latMem = hitLat
		}

		// D(i): fetch-side and in-order constraints. The rare edges —
		// branch redirect, explicit fetch-bandwidth blocker, dispatch
		// blocker — each reduce to max(d, xRow[s]+xDelta), normalized here
		// so the scenario loop is branch-free in the common case.
		var brRow, fbRow, dbRow []int64
		var brDelta, fbDelta, dbDelta int64
		if e.FetchBlocker != machine.Unset {
			b := int(e.FetchBlocker)
			switch e.FetchReason {
			case machine.FetchRedirect:
				// A mispredict edge: E(blocker) + refill. BrMispredict
				// scenarios drop it (masked to 0 below); fetch bandwidth
				// still applies via the structural edges.
				brRow = arrE[b*S : b*S+S : b*S+S]
				brDelta = depth + 1
			case machine.FetchBW:
				fbRow = arrD[b*S : b*S+S : b*S+S]
				fbDelta = e.Dispatch - ev[b].Dispatch
			}
		}
		if b := e.DispatchBlocker; b >= 0 {
			switch e.DispatchReason {
			case machine.DispWidth:
				dbRow = arrD[int(b)*S : int(b)*S+S : int(b)*S+S]
				dbDelta = e.Dispatch - ev[b].Dispatch
			case machine.DispROB:
				dbRow = arrC[int(b)*S : int(b)*S+S : int(b)*S+S]
				dbDelta = e.Dispatch - ev[b].Commit
			case machine.DispWindow:
				dbRow = arrE[int(b)*S : int(b)*S+S : int(b)*S+S]
				dbDelta = e.Dispatch - ev[b].Issue - (ev[b].Complete - ev[b].Issue)
			}
		}
		var dPrev, fwRow, robRow []int64
		if i > 0 {
			dPrev = arrD[row-S : row : row]
		}
		if i >= cfg.FetchWidth {
			fwRow = arrD[(i-cfg.FetchWidth)*S : (i-cfg.FetchWidth)*S+S : (i-cfg.FetchWidth)*S+S]
		}
		if i >= cfg.ROBSize {
			robRow = arrC[(i-cfg.ROBSize)*S : (i-cfg.ROBSize)*S+S : (i-cfg.ROBSize)*S+S]
		}

		if brRow == nil && dPrev != nil && fwRow != nil && robRow != nil {
			// Steady state (the overwhelming majority of instructions):
			// in-order dispatch dominates the pipeline floor by induction,
			// so d = max(prev, fetch-bandwidth, ROB recycling) plus at most
			// two plain blocker edges (fetch-bandwidth blocker, dispatch
			// blocker) suffices. Re-slicing the siblings to len(dRow) lets
			// the compiler drop their bounds checks.
			prev, fw, rob := dPrev[:len(dRow)], fwRow[:len(dRow)], robRow[:len(dRow)]
			xRow, xDelta := fbRow, fbDelta
			yRow, yDelta := dbRow, dbDelta
			if xRow == nil {
				xRow, xDelta = yRow, yDelta
				yRow = nil
			}
			switch {
			case xRow == nil:
				for s := range dRow {
					d := prev[s]
					if v := fw[s] + 1; v > d {
						d = v
					}
					if v := rob[s]; v > d {
						d = v
					}
					dRow[s] = d
				}
			case yRow == nil:
				x := xRow[:len(dRow)]
				for s := range dRow {
					d := prev[s]
					if v := x[s] + xDelta; v > d {
						d = v
					}
					if v := fw[s] + 1; v > d {
						d = v
					}
					if v := rob[s]; v > d {
						d = v
					}
					dRow[s] = d
				}
			default:
				x, y := xRow[:len(dRow)], yRow[:len(dRow)]
				for s := range dRow {
					d := prev[s]
					if v := x[s] + xDelta; v > d {
						d = v
					}
					if v := y[s] + yDelta; v > d {
						d = v
					}
					if v := fw[s] + 1; v > d {
						d = v
					}
					if v := rob[s]; v > d {
						d = v
					}
					dRow[s] = d
				}
			}
		} else {
			for s := range dRow {
				var d int64
				if brRow != nil {
					// The whole edge is positive, so masking it to zero
					// under BrMispredict zeroing drops it.
					if v := (brRow[s] + brDelta) & brKeep[s]; v > d {
						d = v
					}
				} else if fbRow != nil {
					if v := fbRow[s] + fbDelta; v > d {
						d = v
					}
				}
				if dPrev != nil {
					if v := dPrev[s]; v > d {
						d = v // in-order dispatch
					}
				}
				if fwRow != nil {
					if v := fwRow[s] + 1; v > d {
						d = v // fetch bandwidth
					}
				}
				if robRow != nil {
					if v := robRow[s]; v > d {
						d = v // ROB recycling
					}
				}
				if dbRow != nil {
					if v := dbRow[s] + dbDelta; v > d {
						d = v
					}
				}
				// The front-end pipeline is an absolute floor: nothing
				// dispatches before cycle PipelineDepth.
				if depth > d {
					d = depth
				}
				dRow[s] = d
			}
		}

		// Dispatch-bound floor of E(i). When neither contention nor a
		// cache miss applies (most instructions) the delay is the same
		// under every scenario, so the keep-mask selection and the cl
		// buffer are skipped entirely.
		clUniform := contRaw|memExtra == 0
		if clUniform {
			for s := range eRow {
				eRow[s] = dRow[s] + 1 + latMem
			}
		} else {
			ck, mk := contKeep[:len(eRow)], memKeep[:len(eRow)]
			clv := cl[:len(eRow)]
			for s := range eRow {
				cls := (contRaw & ck[s]) + latMem + (memExtra & mk[s])
				clv[s] = cls
				eRow[s] = dRow[s] + 1 + cls
			}
		}

		// E(i): operands — one producer-list traversal shared by all
		// scenarios, accumulated straight into this row (producers are
		// strictly earlier instructions, so no aliasing).
		az.prodBuf = tr.Producers(i, az.prodBuf[:0])
		for _, p := range az.prodBuf {
			var wRaw int64
			if ev[p].Cluster != e.Cluster {
				wRaw = ev[p].RemoteAvail - ev[p].Complete
			}
			prow := arrE[int(p)*S : int(p)*S+S : int(p)*S+S]
			eR := eRow[:len(prow)]
			switch {
			case wRaw == 0 && clUniform:
				for s := range prow {
					if v := prow[s] + latMem; v > eR[s] {
						eR[s] = v
					}
				}
			case wRaw == 0:
				clv := cl[:len(prow)]
				for s := range prow {
					if v := prow[s] + clv[s]; v > eR[s] {
						eR[s] = v
					}
				}
			case clUniform:
				fk := fwdKeep[:len(prow)]
				for s := range prow {
					if v := prow[s] + (wRaw & fk[s]) + latMem; v > eR[s] {
						eR[s] = v
					}
				}
			default:
				fk, clv := fwdKeep[:len(prow)], cl[:len(prow)]
				for s := range prow {
					if v := prow[s] + (wRaw & fk[s]) + clv[s]; v > eR[s] {
						eR[s] = v
					}
				}
			}
		}

		// C(i): completion + in-order commit (+ the exact commit-bandwidth
		// edge when commit was delayed past complete+1).
		if i == 0 {
			for s := range cRow {
				cRow[s] = eRow[s] + 1
			}
		} else {
			cPrev := arrC[row-S : row : row]
			eR, prev := eRow[:len(cRow)], cPrev[:len(cRow)]
			if e.Commit != e.Complete+1 {
				commitDelta := e.Commit - ev[i-1].Commit
				for s := range cRow {
					c := eR[s] + 1
					if prevC := prev[s]; prevC > c {
						c = prevC
					}
					if v := prev[s] + commitDelta; v > c {
						c = v
					}
					cRow[s] = c
				}
			} else {
				for s := range cRow {
					c := eR[s] + 1
					if prevC := prev[s]; prevC > c {
						c = prevC
					}
					cRow[s] = c
				}
			}
		}
	}
	copy(az.runtimes, arrC[(n-1)*S:n*S])
	return nil
}

package machine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"clustersim/internal/trace"
)

// Segmented simulation: running a CTR2 trace store window-at-a-time.
//
// The timing model's event log and producer lookups reach arbitrarily far
// back into the trace (a consumer may wake on a producer issued millions
// of instructions earlier), so a single pass over a 100M-instruction
// trace would have to keep the whole trace and event log resident — the
// exact cost the chunked store exists to avoid. Instead, SimulateStore
// simulates the trace as a sequence of independent window samples: each
// window is materialized as a self-contained trace (dependences recomputed
// from a cold register file and store set, exactly trace.Rebuild of the
// window's instruction slice), simulated in isolation, and aggregated.
// This mirrors the paper's own methodology — its figures come from
// detailed simulation of sampled instruction windows, not one unbroken
// run — and makes the streaming path exactly reproducible from memory:
// segmenting an in-memory trace the same way yields byte-identical
// per-window results, and a window at least as long as the trace is a
// plain whole-trace run.

// SegmentFunc builds the machine stack for window segment seg: its
// configuration, steering policy and hooks. It is called once per window,
// in order, so predictor state hung off Hooks is per-window (cold at each
// window start) unless the caller deliberately shares it across calls.
type SegmentFunc func(seg int) (Config, SteerPolicy, Hooks, error)

// StreamResult aggregates the per-window results of a segmented run.
// The embedded Result sums every additive counter across windows
// (L1MissRate is access-weighted; names come from the first window), so
// the ratio accessors (CPI, IPC, MispredictRate, ...) read as whole-run
// figures.
type StreamResult struct {
	Result
	// Windows is the number of window segments simulated.
	Windows int
	// WindowInsts is the configured window length in instructions.
	WindowInsts int64
}

// accumulate folds one window's result into the aggregate.
func (sr *StreamResult) accumulate(r Result) {
	if sr.Windows == 0 {
		sr.ConfigName, sr.PolicyName = r.ConfigName, r.PolicyName
	}
	// Weight the miss-rate blend before the access counters move.
	prevAcc := float64(sr.L1Accesses)
	newAcc := float64(r.L1Accesses)
	if prevAcc+newAcc > 0 {
		sr.L1MissRate = (sr.L1MissRate*prevAcc + r.L1MissRate*newAcc) / (prevAcc + newAcc)
	}
	sr.Cycles += r.Cycles
	sr.Insts += r.Insts
	sr.Branches += r.Branches
	sr.Mispredicts += r.Mispredicts
	sr.L1Accesses += r.L1Accesses
	sr.GlobalValues += r.GlobalValues
	sr.SteerStallCycles += r.SteerStallCycles
	for i := range sr.SteerCounts {
		sr.SteerCounts[i] += r.SteerCounts[i]
	}
	for i := range sr.ILPAvail {
		sr.ILPAvail[i] += r.ILPAvail[i]
		sr.ILPIssued[i] += r.ILPIssued[i]
	}
	sr.Windows++
}

// WindowObserver sees each window's finished machine (with its trace
// and event log still attached) before the machine is recycled — the
// window-at-a-time consumption hook for the critical-path walker
// (critpath.AnalyzeRun) and the list scheduler (listsched.FromMachineRun),
// which both read a finished run, not a live stream. The machine is
// recycled after the observer returns; the observer must not retain it.
type WindowObserver func(seg int, base int64, m *Machine) error

// SimulateStore runs the store's instruction stream through the machine
// window-at-a-time with bounded memory: at any moment only one window's
// trace, machine and event log are live (plus the store's chunk window).
// mk builds the stack for each segment. The final short window is
// simulated as-is; an empty store yields a zero StreamResult.
func SimulateStore(st *trace.Store, windowInsts int64, mk SegmentFunc) (StreamResult, error) {
	return SimulateStoreObserved(st, windowInsts, mk, nil)
}

// SimulateStoreObserved is SimulateStore with a per-window observer
// (nil means none); an observer error aborts the run.
func SimulateStoreObserved(st *trace.Store, windowInsts int64, mk SegmentFunc, obs WindowObserver) (StreamResult, error) {
	var sr StreamResult
	if err := checkWindow(windowInsts, st.Len()); err != nil {
		return sr, err
	}
	sr.WindowInsts = windowInsts
	for lo := int64(0); lo < st.Len(); lo += windowInsts {
		hi := lo + windowInsts
		if hi > st.Len() {
			hi = st.Len()
		}
		tr, err := st.WindowTrace(lo, hi)
		if err != nil {
			return sr, fmt.Errorf("machine: window [%d,%d): %w", lo, hi, err)
		}
		r, err := simulateWindow(sr.Windows, lo, tr, mk, obs)
		if err != nil {
			return sr, fmt.Errorf("machine: window [%d,%d): %w", lo, hi, err)
		}
		sr.accumulate(r)
	}
	return sr, nil
}

// checkWindow rejects a window length the engine cannot simulate before
// any window of a total-instruction stream is materialized.
func checkWindow(windowInsts, total int64) error {
	if windowInsts <= 0 {
		return fmt.Errorf("machine: window of %d instructions", windowInsts)
	}
	if min(windowInsts, total) > MaxInsts {
		return fmt.Errorf("machine: window of %d instructions exceeds the %d-instruction limit; simulate with a window of at most %d instructions", windowInsts, MaxInsts, MaxInsts)
	}
	return nil
}

// streamInFlight tracks window simulations currently live across every
// pipelined run in the process: materialized but not yet aggregated.
// Exported through StreamWindowsInFlight for the metrics layer.
var streamInFlight atomic.Int64

// StreamWindowsInFlight returns the number of streaming windows
// currently in flight (materialized, queued, simulating, or awaiting
// ordered aggregation) across all pipelined runs in the process.
func StreamWindowsInFlight() int64 { return streamInFlight.Load() }

// streamJob is one window moving through the pipelined store run.
type streamJob struct {
	seg    int
	lo, hi int64
	tr     *trace.Trace
	cfg    Config
	pol    SteerPolicy
	hooks  Hooks
	m      *Machine
	res    Result
	err    error
	done   chan struct{} // closed when simulated (or failed at the feeder)
}

// SimulateStorePiped is SimulateStoreObserved with a read-ahead decode
// stage feeding up to depth concurrent window simulations. Aggregation
// is strictly ordered: windows are enqueued on an order-preserving
// queue as they are decoded, and the caller's goroutine folds results
// into the StreamResult — and delivers observer calls — in window order,
// waiting on each window's completion in turn. Output and observer call
// order are therefore byte-identical to the serial path under any depth
// and any GOMAXPROCS. depth <= 1 runs the serial path.
//
// The feeder calls mk once per window, in order, before simulating that
// window — same order as the serial path, but ahead of earlier windows'
// observer calls. Segments must therefore be independent (the
// SegmentFunc contract's cold-start-per-window default); a caller that
// deliberately threads state across windows through mk or its hooks
// must use the serial path.
//
// Memory stays window-bounded: at most depth windows sit decoded in the
// read-ahead queue, depth simulate, and depth await aggregation, so the
// peak heap scales with depth — never with trace length.
func SimulateStorePiped(st *trace.Store, windowInsts int64, mk SegmentFunc, obs WindowObserver, depth int) (StreamResult, error) {
	if depth <= 1 {
		return SimulateStoreObserved(st, windowInsts, mk, obs)
	}
	var sr StreamResult
	if err := checkWindow(windowInsts, st.Len()); err != nil {
		return sr, err
	}
	sr.WindowInsts = windowInsts

	jobs := make(chan *streamJob, depth)  // read-ahead buffer feeding the workers
	order := make(chan *streamJob, depth) // aggregation order (feeder enqueue order)
	stop := make(chan struct{})           // closed by the aggregator on first error

	// Feeder: builds each window's stack (mk, in segment order) and
	// materializes its trace, then hands the job to both queues. A
	// feeder-side error is delivered in order like any other window.
	go func() {
		defer close(jobs)
		defer close(order)
		seg := 0
		for lo := int64(0); lo < st.Len(); lo += windowInsts {
			select {
			case <-stop:
				return
			default:
			}
			hi := lo + windowInsts
			if hi > st.Len() {
				hi = st.Len()
			}
			j := &streamJob{seg: seg, lo: lo, hi: hi, done: make(chan struct{})}
			j.cfg, j.pol, j.hooks, j.err = mk(seg)
			if j.err == nil {
				j.tr, j.err = st.WindowTrace(lo, hi)
			}
			streamInFlight.Add(1)
			if j.err != nil {
				close(j.done) // never reaches a worker
				order <- j
				return
			}
			order <- j
			jobs <- j
			seg++
		}
	}()

	// Workers: simulate windows as they decode, out of order.
	var wg sync.WaitGroup
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				j.m, j.res, j.err = simulateStreamJob(j)
				close(j.done)
			}
		}()
	}

	// Ordered aggregation on the caller's goroutine: the accumulate fold
	// and the observer both see windows in exactly serial order.
	var firstErr error
	for j := range order {
		<-j.done
		if firstErr == nil && j.err != nil {
			firstErr = fmt.Errorf("machine: window [%d,%d): %w", j.lo, j.hi, j.err)
			close(stop)
		}
		if firstErr == nil {
			sr.accumulate(j.res)
			if obs != nil {
				if err := obs(j.seg, j.lo, j.m); err != nil {
					firstErr = err
					close(stop)
				}
			}
		}
		Recycle(j.m) // Recycle(nil) is a no-op
		j.m = nil
		streamInFlight.Add(-1)
	}
	wg.Wait()
	return sr, firstErr
}

// simulateStreamJob runs one decoded window through a pooled machine,
// keeping the machine alive for the ordered observer stage. Panics are
// contained as the window's error: a crash on a worker goroutine would
// otherwise escape the engine's per-job recovery.
func simulateStreamJob(j *streamJob) (m *Machine, res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("machine: window replay panicked: %v", r)
		}
	}()
	m, err = NewPooled(j.cfg, j.tr, j.pol, j.hooks)
	if err != nil {
		return nil, Result{}, err
	}
	return m, m.Run(), nil
}

// SimulateSliced is the in-memory reference for SimulateStore: the same
// window segmentation applied to a materialized trace (each window is
// trace.Rebuild of the slice). The streaming differential gate pins
// SimulateStore == SimulateSliced on identical inputs.
func SimulateSliced(tr *trace.Trace, windowInsts int64, mk SegmentFunc) (StreamResult, error) {
	var sr StreamResult
	total := int64(tr.Len())
	if err := checkWindow(windowInsts, total); err != nil {
		return sr, err
	}
	sr.WindowInsts = windowInsts
	for lo := int64(0); lo < total; lo += windowInsts {
		hi := lo + windowInsts
		if hi > total {
			hi = total
		}
		wtr := trace.Rebuild(tr.Insts[lo:hi])
		r, err := simulateWindow(sr.Windows, lo, wtr, mk, nil)
		if err != nil {
			return sr, fmt.Errorf("machine: window [%d,%d): %w", lo, hi, err)
		}
		sr.accumulate(r)
	}
	return sr, nil
}

// simulateWindow runs one window trace through a pooled machine.
func simulateWindow(seg int, base int64, tr *trace.Trace, mk SegmentFunc, obs WindowObserver) (Result, error) {
	cfg, pol, hooks, err := mk(seg)
	if err != nil {
		return Result{}, err
	}
	m, err := NewPooled(cfg, tr, pol, hooks)
	if err != nil {
		return Result{}, err
	}
	r := m.Run()
	if obs != nil {
		if err := obs(seg, base, m); err != nil {
			Recycle(m)
			return Result{}, err
		}
	}
	Recycle(m)
	return r, nil
}

// Package server turns the cached, chaos-hardened experiment
// engine into a long-running multi-tenant service: an HTTP/JSON job API
// that accepts experiment specs, admits them behind a bounded weighted
// fair queue keyed by tenant, executes everything through ONE shared
// engine.Engine (so content-addressed caching and singleflight dedup
// work across tenants), and exposes progress streams, results,
// cancellation and /metrics from the same process.
//
// API (all JSON unless noted):
//
//	POST   /v1/jobs          submit a Spec    → 202 {id,...} | 400 | 403 | 429+Retry-After
//	GET    /v1/jobs/{id}     status; ?wait=5s long-polls until terminal
//	GET    /v1/jobs/{id}/result   rendered artifacts once done (409 before)
//	GET    /v1/jobs/{id}/events   Server-Sent Events progress stream
//	DELETE /v1/jobs/{id}     cancel (queued or running)
//	GET    /v1/stats         engine + server counters
//	GET    /v1/experiments   servable experiment names
//	GET    /healthz          liveness
//	GET    /metrics          text metrics dump (plus /debug/pprof/)
//
// Fairness: see the wfq type. Cancellation: every job runs under its own
// context (engine *Ctx submissions), so cancelling one tenant's job
// never touches another's — internal/engine/context_test.go is the
// regression suite.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/durable"
	"clustersim/internal/engine"
	"clustersim/internal/faultinject"
	"clustersim/internal/metrics"
)

// Config configures a Server.
type Config struct {
	// Engine executes and caches every tenant's jobs; required.
	Engine *engine.Engine
	// Metrics receives the server's counters; defaults to the engine's
	// registry.
	Metrics *metrics.Registry
	// Tenants maps tenant ID → fair-share weight. Submissions from
	// tenants not listed here are rejected (403). Empty means a single
	// "default" tenant with weight 1.
	Tenants map[string]float64
	// MaxQueue bounds queued (not running) jobs; beyond it submissions
	// get 429 with a Retry-After hint. <=0 means 256.
	MaxQueue int
	// Runners is the number of concurrent job executors; <=0 means
	// GOMAXPROCS. (Each job further parallelizes across benchmarks on
	// the engine's worker pool; cross-tenant duplicate work collapses in
	// the engine's singleflight either way.)
	Runners int
	// MaxInsts caps a spec's per-benchmark instruction count; <=0 means
	// 2,000,000.
	MaxInsts int
	// MaxJobs bounds retained finished jobs; the oldest finished jobs
	// are forgotten beyond it. <=0 means 16384.
	MaxJobs int
	// JobLog, when non-empty, is the path of the durable job log: every
	// accepted job is fsynced there before the 202 is sent, and on
	// startup the log is replayed — incomplete jobs re-enqueue, finished
	// jobs restore as retrievable results. Empty means in-memory only
	// (a crash loses queued and running jobs).
	JobLog string
	// DefaultJobDeadline is the stuck-job watchdog's per-job wall-clock
	// deadline when the spec sets none. 0 means no default deadline.
	DefaultJobDeadline time.Duration
	// MaxJobDeadline clamps spec-requested deadlines (deadline_secs).
	// 0 means no clamp.
	MaxJobDeadline time.Duration
	// SSEHeartbeat is the interval between `: ping` comments on idle
	// event streams, which is how dead clients are detected and their
	// stream goroutines reaped. <=0 means 15s.
	SSEHeartbeat time.Duration
}

// Server is the multi-tenant simulation service. Create with New, wire
// Handler into an http.Server, call Start, and Close on shutdown.
type Server struct {
	eng         *engine.Engine
	met         *metrics.Registry
	tenants     map[string]float64
	q           *wfq
	runners     int
	maxInsts    int
	maxJobs     int
	defDeadline time.Duration
	maxDeadline time.Duration
	heartbeat   time.Duration

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*Job
	finished  []string // finish order, for pruning
	nextID    uint64
	jlog      *durable.Log      // nil without Config.JobLog
	idemIndex map[string]string // tenant\x00Idempotency-Key → job ID
	recovered map[string]string // tenant\x00spec.Key() → incomplete recovered job ID

	running   atomic.Int64
	ewmaNs    atomic.Int64 // EWMA of job wall time, for Retry-After
	draining  atomic.Bool
	sseActive atomic.Int64
	drainCh   chan struct{} // closed when draining starts

	cSubmitted, cCompleted, cFailed *metrics.Counter
	cCanceled, cRejected, cInvalid  *metrics.Counter
	cStuckKilled, cLogErr           *metrics.Counter
	cRestored, cRequeued            *metrics.Counter
	cDrainPersisted, cDrainAborted  *metrics.Counter
	tJob                            *metrics.Timer
}

// New builds a Server from cfg. The returned server accepts submissions
// once its handler is serving, but executes nothing until Start.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	met := cfg.Metrics
	if met == nil {
		met = cfg.Engine.Metrics()
	}
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = map[string]float64{"default": 1}
	}
	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 256
	}
	runners := cfg.Runners
	if runners <= 0 {
		runners = runtime.GOMAXPROCS(0)
	}
	maxInsts := cfg.MaxInsts
	if maxInsts <= 0 {
		maxInsts = 2_000_000
	}
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 16384
	}
	heartbeat := cfg.SSEHeartbeat
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		eng:         cfg.Engine,
		met:         met,
		tenants:     tenants,
		q:           newWFQ(maxQueue),
		runners:     runners,
		maxInsts:    maxInsts,
		maxJobs:     maxJobs,
		defDeadline: cfg.DefaultJobDeadline,
		maxDeadline: cfg.MaxJobDeadline,
		heartbeat:   heartbeat,
		baseCtx:     ctx,
		stop:        stop,
		jobs:        map[string]*Job{},
		idemIndex:   map[string]string{},
		recovered:   map[string]string{},
		drainCh:     make(chan struct{}),

		cSubmitted:      met.Counter("server.jobs.submitted"),
		cCompleted:      met.Counter("server.jobs.completed"),
		cFailed:         met.Counter("server.jobs.failed"),
		cCanceled:       met.Counter("server.jobs.canceled"),
		cRejected:       met.Counter("server.jobs.rejected"),
		cInvalid:        met.Counter("server.jobs.invalid"),
		cStuckKilled:    met.Counter("server.jobs.stuck_killed"),
		cLogErr:         met.Counter("server.joblog.error"),
		cRestored:       met.Counter("server.joblog.restored"),
		cRequeued:       met.Counter("server.joblog.requeued"),
		cDrainPersisted: met.Counter("server.drain.persisted"),
		cDrainAborted:   met.Counter("server.drain.aborted"),
		tJob:            met.Timer("server.job.run"),
	}
	met.Func("server.queue.depth", func() int64 { return int64(s.q.depth()) })
	met.Func("server.jobs.running", s.running.Load)
	met.Func("server.sse.active", s.sseActive.Load)
	if cfg.JobLog != "" {
		if err := s.openLog(cfg.JobLog); err != nil {
			stop()
			return nil, err
		}
	}
	return s, nil
}

// openLog attaches the durable job log: replay the valid prefix, restore
// finished jobs as retrievable results, re-enqueue incomplete ones, and
// compact the log to the live state.
func (s *Server) openLog(path string) error {
	jl, payloads, torn, err := durable.Open(path, "joblog", maxJobLogPayload)
	if err != nil {
		return fmt.Errorf("server: open job log: %w", err)
	}
	if torn > 0 {
		fmt.Fprintf(os.Stderr, "server: job log %s: truncated %d-byte torn tail\n", path, torn)
	}
	var recs []jlRecord
	for _, payload := range payloads {
		var rec jlRecord
		if json.Unmarshal(payload, &rec) == nil && rec.ID != "" {
			recs = append(recs, rec)
		}
	}
	order, merged := mergeRecords(recs)
	live := make([]jlRecord, 0, 2*len(order))
	for _, id := range order {
		jj := merged[id]
		if !jj.accepted {
			continue // finished/started records for a job the log never accepted
		}
		s.bumpNextID(id)
		sp := *jj.rec.Spec
		switch {
		case jj.finished:
			j := restoreFinishedJob(id, sp, jj.state, jj.arts, jj.errMsg, jj.rec.SubmittedAt)
			j.idemKey = jj.rec.IdemKey
			s.jobs[id] = j
			s.finished = append(s.finished, id)
			if j.idemKey != "" {
				s.idemIndex[idxKey(sp.Tenant, j.idemKey)] = id
			}
			s.cRestored.Inc()
			fin := jlRecord{Kind: jlFinished, ID: id, State: jj.state, Artifacts: jj.arts, Err: jj.errMsg}
			live = append(live, jj.rec, fin)
		default:
			j := restoreQueuedJob(id, sp, jj.rec.IdemKey, jj.rec.SubmittedAt, jj.started)
			weight, ok := s.tenants[sp.Tenant]
			if !ok {
				weight = 1 // tenant config changed across restarts; still honor the accepted work
			}
			s.jobs[id] = j
			j.recoveredKey = idxKey(sp.Tenant, sp.Key())
			s.recovered[j.recoveredKey] = id
			if j.idemKey != "" {
				s.idemIndex[idxKey(sp.Tenant, j.idemKey)] = id
			}
			live = append(live, jj.rec) // stays accepted even if the push below fails
			if err := s.q.push(j, weight); err != nil {
				// Queue bound smaller than the backlog: the job stays
				// accepted in the log and recovers on a later start, but
				// in memory it is terminal — drop its recovered-index
				// entry so retrying resubmissions re-run the work instead
				// of deduping onto a canceled husk, and record it finished
				// so retention prunes it like any other terminal job.
				delete(s.recovered, j.recoveredKey)
				j.recoveredKey = ""
				j.finish(StateCanceled, nil, "recovered job exceeded queue bound")
				s.finished = append(s.finished, id)
				continue
			}
			s.cRequeued.Inc()
		}
	}
	// Retention: prune the oldest restored finished jobs beyond the cap.
	for len(s.finished) > s.maxJobs {
		s.forgetLocked(s.finished[0])
		s.finished = s.finished[1:]
	}
	compacted := make([][]byte, len(live))
	for i, rec := range live {
		compacted[i], _ = json.Marshal(rec) // decoded from JSON, so it encodes
	}
	if err := jl.Compact(compacted); err != nil {
		jl.Close() // the compaction error is the one to report
		return fmt.Errorf("server: compact job log: %w", err)
	}
	s.jlog = jl
	return nil
}

// bumpNextID advances the ID counter past a replayed job ID so new
// submissions never collide with recovered ones.
func (s *Server) bumpNextID(id string) {
	var n uint64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// idxKey builds the (tenant, key) index key for the idempotency and
// recovered-job maps.
func idxKey(tenant, key string) string { return tenant + "\x00" + key }

// forgetLocked removes a pruned job and its index entries (s.mu held, or
// startup before the server is shared).
func (s *Server) forgetLocked(id string) {
	if j := s.jobs[id]; j != nil {
		if j.idemKey != "" {
			delete(s.idemIndex, idxKey(j.Spec.Tenant, j.idemKey))
		}
		if j.recoveredKey != "" {
			delete(s.recovered, j.recoveredKey)
		}
	}
	delete(s.jobs, id)
}

// Start launches the runner pool.
func (s *Server) Start() {
	for i := 0; i < s.runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
}

// Close stops admitting work, cancels queued and running jobs, and waits
// for the runners to drain. Shutdown-cancelled jobs are deliberately NOT
// logged terminal: with a job log attached they stay accepted on disk
// and re-enqueue on the next start.
func (s *Server) Close() {
	for _, j := range s.q.close() {
		j.finish(StateCanceled, nil, "server shutting down")
		s.cCanceled.Inc()
	}
	s.stop() // cancels every running job's context
	s.wg.Wait()
	s.mu.Lock()
	jl := s.jlog
	s.jlog = nil
	s.mu.Unlock()
	if jl != nil && jl.Close() != nil {
		s.cLogErr.Inc()
	}
}

// DrainStats reports what a graceful drain did with in-flight work.
type DrainStats struct {
	// Persisted is how many queued jobs were left for the next start
	// (durable in the job log when one is attached).
	Persisted int `json:"persisted"`
	// Completed is how many running jobs finished within the deadline.
	Completed int `json:"completed"`
	// Aborted is how many running jobs were still going at the deadline
	// and had their contexts cancelled; they too stay accepted in the
	// job log and re-run on the next start.
	Aborted int `json:"aborted"`
}

// Drain gracefully quiesces the server: new submissions get 503 with a
// Retry-After, event streams and long-polls return, runners finish their
// current jobs (bounded by ctx) and stop, and queued jobs are left
// untouched — persisted by the job log for the next start. Running jobs
// that outlive ctx are cancelled without a terminal log record, so they
// also recover. Safe to call once; the HTTP handler keeps serving
// status/result reads so clients can collect finished work until the
// process exits.
func (s *Server) Drain(ctx context.Context) DrainStats {
	var ds DrainStats
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	ds.Persisted = s.q.drain()
	s.cDrainPersisted.Add(int64(ds.Persisted))

	runningAtStart := int(s.running.Load())
	done := make(chan struct{})
	go func() {
		s.wg.Wait() // runners exit once their current job finishes (pop returns false)
		close(done)
	}()
	select {
	case <-done:
		ds.Completed = runningAtStart
	case <-ctx.Done():
		// Deadline: cancel what is still running; those jobs stay
		// accepted (not logged terminal) and re-run after restart.
		s.mu.Lock()
		var stuck []*Job
		for _, j := range s.jobs {
			if j.currentState() == StateRunning {
				stuck = append(stuck, j)
			}
		}
		s.mu.Unlock()
		for _, j := range stuck {
			j.serverCancel()
		}
		ds.Aborted = len(stuck)
		ds.Completed = runningAtStart - ds.Aborted
		s.cDrainAborted.Add(int64(ds.Aborted))
	}
	return ds
}

// Draining reports whether the server has begun a graceful drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// runner executes queued jobs until the queue closes.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job under its own context.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.start(cancel) {
		return // cancelled while queued
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	s.logAppend(jlRecord{Kind: jlStarted, ID: j.ID}, false)

	// Stuck-job watchdog: a wall-clock deadline (spec-requested, clamped
	// by the server, defaulted by config) cancels a runaway job through
	// its own context.
	if deadline := s.jobDeadline(j.Spec); deadline > 0 {
		wd := time.AfterFunc(deadline, func() {
			if j.markDeadline() {
				cancel()
			}
		})
		defer wd.Stop()
	}

	start := time.Now()
	opts := j.Spec.options()
	opts.Engine = s.eng
	opts.Ctx = ctx

	artifacts := make([]ResultArtifact, 0, len(j.Spec.Experiments))
	var runErr error
	for i, name := range j.Spec.Experiments {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		out, err := runExperiment(name, opts)
		if err != nil {
			runErr = err
			break
		}
		artifacts = append(artifacts, ResultArtifact{Experiment: name, Output: out})
		j.progress(fmt.Sprintf("%s done (%d/%d)", name, i+1, len(j.Spec.Experiments)))
	}
	dur := time.Since(start)
	s.tJob.Observe(dur)
	s.noteDuration(dur)

	switch {
	case runErr == nil:
		j.finish(StateDone, artifacts, "")
		s.cCompleted.Inc()
		s.logFinished(j)
	case j.wasDeadlined():
		j.finish(StateDeadline, nil, fmt.Sprintf("killed by the stuck-job watchdog after %s", dur.Round(time.Millisecond)))
		s.cStuckKilled.Inc()
		s.logFinished(j) // terminal: a restart must not re-run it into the same wall
	case ctx.Err() != nil || errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
		j.finish(StateCanceled, nil, "canceled")
		s.cCanceled.Inc()
		// Client cancels are terminal and logged; server-initiated
		// cancels (drain timeout, shutdown) are not — the job stays
		// accepted in the log and re-runs on the next start.
		if j.wasClientCanceled() {
			s.logFinished(j)
		}
	default:
		j.finish(StateFailed, nil, runErr.Error())
		s.cFailed.Inc()
		s.logFinished(j)
	}
	s.noteFinished(j.ID)
}

// jobDeadline resolves a job's watchdog deadline: the spec's request,
// falling back to the server default, clamped to MaxJobDeadline. A job
// with neither a requested nor a default deadline runs unbounded — the
// max only clamps deadlines that exist, it never imposes one, so long
// legitimate jobs aren't watchdog-killed just because -max-job-deadline
// is set.
func (s *Server) jobDeadline(sp Spec) time.Duration {
	d := time.Duration(sp.DeadlineSecs * float64(time.Second))
	if d <= 0 {
		d = s.defDeadline
	}
	if d <= 0 {
		return 0
	}
	if s.maxDeadline > 0 && d > s.maxDeadline {
		d = s.maxDeadline
	}
	return d
}

// logAppend appends one record to the job log (a no-op without one).
// With required set, failures propagate — the caller must refuse the
// work; otherwise they are counted and absorbed (a restart just re-runs
// the affected job).
func (s *Server) logAppend(rec jlRecord, required bool) error {
	s.mu.Lock()
	jl := s.jlog
	s.mu.Unlock()
	if jl == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		err = jl.Append(payload)
	}
	if err != nil {
		s.cLogErr.Inc()
		if required {
			return err
		}
	}
	return nil
}

// logFinished records a job's terminal state (with artifacts for done
// jobs, so they restore as retrievable results).
func (s *Server) logFinished(j *Job) {
	arts, state, errMsg := j.results()
	s.logAppend(jlRecord{Kind: jlFinished, ID: j.ID, State: state, Artifacts: arts, Err: errMsg}, false)
}

// noteDuration folds one job's wall time into the EWMA behind Retry-After.
func (s *Server) noteDuration(d time.Duration) {
	for {
		old := s.ewmaNs.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/4
		}
		if s.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter estimates (in whole seconds, clamped to [1, 60]) how long a
// rejected client should wait for queue headroom: queued work divided by
// drain rate.
func (s *Server) retryAfter() int {
	depth := s.q.depth()
	ewma := time.Duration(s.ewmaNs.Load())
	if ewma <= 0 {
		ewma = time.Second
	}
	secs := int(math.Ceil(float64(depth) * ewma.Seconds() / float64(s.runners)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// noteFinished records finish order, releases the job's recovered-index
// entry (a finished job no longer matches crash-retry resubmissions),
// and prunes beyond the retention bound.
func (s *Server) noteFinished(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil && j.recoveredKey != "" {
		delete(s.recovered, j.recoveredKey)
		j.recoveredKey = ""
	}
	s.finished = append(s.finished, id)
	for len(s.finished) > s.maxJobs {
		s.forgetLocked(s.finished[0])
		s.finished = s.finished[1:]
	}
}

// lookup returns the job for id.
func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"experiments": ExperimentNames()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", metrics.Handler(s.met))
	mux.Handle("/debug/pprof/", metrics.Handler(s.met))
	return mux
}

// handleSubmit admits one spec. With a job log attached, the accepted
// record is fsynced before the 202 leaves: a job the client believes
// accepted is always recoverable. Resubmissions carrying the same
// Idempotency-Key — or matching an incomplete log-recovered (tenant,
// spec-key) entry — return the existing job instead of double-enqueuing.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "10")
		writeErr(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = faultinject.Err("server.request.read")
	}
	if err != nil {
		// An oversized body is a permanent client error — a 503 here
		// would have well-behaved clients retrying it forever.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.cInvalid.Inc()
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "request read failed: "+err.Error())
		return
	}
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		s.cInvalid.Inc()
		writeErr(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	if msg := validateSpec(sp, s.maxInsts); msg != "" {
		s.cInvalid.Inc()
		writeErr(w, http.StatusBadRequest, msg)
		return
	}
	weight, ok := s.tenants[sp.Tenant]
	if !ok {
		s.cInvalid.Inc()
		writeErr(w, http.StatusForbidden, fmt.Sprintf("unknown tenant %q", sp.Tenant))
		return
	}

	idem := r.Header.Get("Idempotency-Key")
	s.mu.Lock()
	if idem != "" {
		if id, ok := s.idemIndex[idxKey(sp.Tenant, idem)]; ok {
			j := s.jobs[id]
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, j.snapshot())
			return
		}
	}
	if id, ok := s.recovered[idxKey(sp.Tenant, sp.Key())]; ok {
		// A crash-recovered incomplete job with this exact work: the
		// retrying client gets it back instead of enqueuing a duplicate.
		j := s.jobs[id]
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	j := newJob(id, sp)
	j.idemKey = idem
	s.jobs[id] = j
	if idem != "" {
		s.idemIndex[idxKey(sp.Tenant, idem)] = id
	}
	s.mu.Unlock()

	reject := func() {
		s.mu.Lock()
		s.forgetLocked(id)
		s.mu.Unlock()
	}
	accepted := j.snapshot() // a runner may start the job once it is pushed
	if err := s.q.push(j, weight); err != nil {
		reject()
		s.cRejected.Inc()
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
			writeErr(w, http.StatusTooManyRequests, "queue full")
		} else {
			writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		}
		return
	}
	// Write-ahead: the accepted record must be durable before the client
	// hears 202. On failure the job is withdrawn and the client retries.
	if err := s.logAppend(acceptedRecord(j), true); err != nil {
		j.requestCancel() // queued: finishes immediately; pop skips it
		reject()
		s.cRejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "job log append failed: "+err.Error())
		return
	}
	s.cSubmitted.Inc()
	writeJSON(w, http.StatusAccepted, accepted)
}

// handleStatus reports a job's status; ?wait=5s long-polls until the job
// reaches a terminal state or the wait expires.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait < 0 {
			writeErr(w, http.StatusBadRequest, "bad wait duration")
			return
		}
		if wait > 5*time.Minute {
			wait = 5 * time.Minute
		}
		select {
		case <-j.done:
		case <-time.After(wait):
		case <-r.Context().Done():
			return
		case <-s.drainCh: // drain releases long-polls promptly
		}
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleResult returns the rendered artifacts of a finished job.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	artifacts, state, errMsg := j.results()
	switch state {
	case StateDone:
		writeJSON(w, http.StatusOK, map[string]any{
			"id": j.ID, "state": state, "artifacts": artifacts,
		})
	case StateFailed, StateCanceled, StateDeadline:
		writeJSON(w, http.StatusConflict, map[string]any{
			"id": j.ID, "state": state, "error": errMsg,
		})
	default:
		writeErr(w, http.StatusConflict, fmt.Sprintf("job is %s; results exist only for done jobs", state))
	}
}

// handleEvents streams a job's progress as Server-Sent Events until it
// reaches a terminal state. Idle streams carry `: ping` heartbeat
// comments every SSEHeartbeat: a dead client surfaces as a write error
// on the next ping, so its stream goroutine is reaped instead of parked
// forever on a job that may never finish. Drain ends every stream so
// shutdown is never blocked by a hung client.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	s.sseActive.Add(1)
	defer s.sseActive.Add(-1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// sseWrite surfaces both injected faults and real dead-client write
	// errors; any error ends the stream.
	sseWrite := func(format string, args ...any) error {
		if err := faultinject.Err("server.sse.write"); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}

	heartbeat := time.NewTicker(s.heartbeat)
	defer heartbeat.Stop()
	seq := 0
	for {
		evs, state, updated := j.eventsSince(seq)
		for _, ev := range evs {
			data, _ := json.Marshal(ev)
			if sseWrite("event: progress\ndata: %s\n\n", data) != nil {
				return
			}
			seq = ev.Seq + 1
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if state.terminal() {
			data, _ := json.Marshal(j.snapshot())
			sseWrite("event: done\ndata: %s\n\n", data)
			fl.Flush()
			return
		}
		select {
		case <-updated:
		case <-j.done:
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			sseWrite("event: draining\ndata: {\"msg\":\"server draining; reconnect after restart\"}\n\n")
			fl.Flush()
			return
		case <-heartbeat.C:
			if sseWrite(": ping\n\n") != nil {
				return // dead client: reap the stream
			}
			fl.Flush()
		}
	}
}

// handleCancel cancels a job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	was := j.currentState()
	state := j.requestCancel()
	if was == StateQueued && state == StateCanceled {
		s.cCanceled.Inc()
		s.noteFinished(j.ID)
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "state": state})
}

// Stats is the /v1/stats payload: the shared engine's cache
// effectiveness plus the server's own job counters.
type Stats struct {
	Workers     int   `json:"workers"`
	Runners     int   `json:"runners"`
	QueueDepth  int   `json:"queue_depth"`
	JobsRunning int64 `json:"jobs_running"`

	Submitted int64 `json:"jobs_submitted"`
	Completed int64 `json:"jobs_completed"`
	Failed    int64 `json:"jobs_failed"`
	Canceled  int64 `json:"jobs_canceled"`
	Rejected  int64 `json:"jobs_rejected"`
	Invalid   int64 `json:"jobs_invalid"`

	// Crash-safety layer (see DESIGN.md "Failure model & recovery").
	StuckKilled    int64 `json:"jobs_stuck_killed"`
	JoblogErrors   int64 `json:"joblog_errors"`
	JoblogRestored int64 `json:"joblog_restored"`
	JoblogRequeued int64 `json:"joblog_requeued"`
	DrainPersisted int64 `json:"drain_persisted"`
	DrainAborted   int64 `json:"drain_aborted"`
	Draining       bool  `json:"draining"`
	SSEActive      int64 `json:"sse_active"`

	SimHits     int64   `json:"sim_hits"`
	SimDiskHits int64   `json:"sim_disk_hits"`
	SimMisses   int64   `json:"sim_misses"`
	HitRate     float64 `json:"sim_hit_rate"`
	TraceHits   int64   `json:"trace_hits"`
	TraceMisses int64   `json:"trace_misses"`
	AnaHits     int64   `json:"analysis_hits"`
	AnaMisses   int64   `json:"analysis_misses"`
	SchedHits   int64   `json:"sched_hits"`
	SchedMisses int64   `json:"sched_misses"`

	// Parallel replay layer (see DESIGN.md "Parallel replay").
	ReplayWorkers int   `json:"replay_workers"`
	ReplayBusyNs  int64 `json:"replay_busy_ns"`
}

// StatsSnapshot returns the current Stats (also served at /v1/stats).
func (s *Server) StatsSnapshot() Stats {
	es := s.eng.Summary()
	return Stats{
		Workers:     es.Workers,
		Runners:     s.runners,
		QueueDepth:  s.q.depth(),
		JobsRunning: s.running.Load(),
		Submitted:   s.cSubmitted.Load(),
		Completed:   s.cCompleted.Load(),
		Failed:      s.cFailed.Load(),
		Canceled:    s.cCanceled.Load(),
		Rejected:    s.cRejected.Load(),
		Invalid:     s.cInvalid.Load(),

		StuckKilled:    s.cStuckKilled.Load(),
		JoblogErrors:   s.cLogErr.Load(),
		JoblogRestored: s.cRestored.Load(),
		JoblogRequeued: s.cRequeued.Load(),
		DrainPersisted: s.cDrainPersisted.Load(),
		DrainAborted:   s.cDrainAborted.Load(),
		Draining:       s.draining.Load(),
		SSEActive:      s.sseActive.Load(),

		SimHits:     es.SimHits,
		SimDiskHits: es.SimDiskHits,
		SimMisses:   es.SimMisses,
		HitRate:     es.HitRate(),
		TraceHits:   es.TraceHits,
		TraceMisses: es.TraceMisses,
		AnaHits:     es.AnaHits,
		AnaMisses:   es.AnaMisses,
		SchedHits:   es.SchedHits,
		SchedMisses: es.SchedMisses,

		ReplayWorkers: es.ReplayWorkers,
		ReplayBusyNs:  es.ReplayBusyNs,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// writeJSON writes v with status code. The response write is a fault
// injection site: under chaos an otherwise-successful request can lose
// its response mid-flight, which is exactly the window the job log's
// idempotent resubmission exists for.
func writeJSON(w http.ResponseWriter, code int, v any) {
	if err := faultinject.Err("server.response.write"); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": "injected response fault: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr writes a JSON error body.
func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/server"
)

// The serve workload runs an in-process server behind a loopback
// listener, with the job log and disk cache on, and drives it through
// its HTTP API from a closed loop of clients: each client submits a
// job, long-polls it and fetches the result before it submits the
// next. It is the only workload that exercises the server (HTTP, the
// fair queue, a job-log fsync on every accept and finish) and the
// engine's in-memory hit path.

type serveScale struct {
	insts   int     // instructions per benchmark trace
	jobs    int     // jobs in the list one pass works through
	nominal float64 // nominal seconds per pass (see passes)
}

var serveScales = map[string]serveScale{
	"full": {insts: 3000, jobs: 250, nominal: 3.3},
	"tiny": {insts: 400, jobs: 24, nominal: 1},
}

// Job classes and their shares of the list. The cached share stays
// well under half and the sweeps, the slowest class, well over 1%, so
// neither p50 nor p99 sits on the boundary between fast cache hits and
// slow compute jobs.
const (
	classCached = "cached" // a popular figure spec: an engine hit
	classFresh  = "fresh"  // the same figures at a never-used seed: misses on small traces
	classSweep  = "sweep"  // a registry sweep that bypasses the engine cache
)

var (
	serveShares = []struct {
		class string
		pct   int
	}{{classCached, 20}, {classSweep, 30}, {classFresh, 50}}
	serveFigures = []string{"fig2", "fig4", "fig5"}
	serveBenches = []string{"gzip", "mcf"}
	serveSweeps  = []string{"stall-sweep", "window-sweep", "bandwidth-sweep", "predictor-sweep", "replication", "group-steer", "detector-compare"}
	// serveTenants are the clients' tenants and fair-share weights; one
	// client per tenant.
	serveTenants = []struct {
		name   string
		weight float64
	}{{"light", 1}, {"heavy", 2}}
)

type serveJob struct {
	class string
	spec  server.Spec // Tenant is set by the client that takes the job
}

// serveJobList is the seeded job list. Each class has its exact share,
// and within a class every (experiment, benchmark) pair appears equally
// often, so the seed changes the order of the jobs and the fresh seeds
// but not how much work the list holds.
func serveJobList(seed uint64, insts, n int) []serveJob {
	base := programSeed(seed, 0)
	var jobs []serveJob
	left := n
	for k, sh := range serveShares {
		exps := serveFigures
		if sh.class == classSweep {
			exps = serveSweeps
		}
		count := n * sh.pct / 100
		if k == len(serveShares)-1 {
			count = left // rounding remainder
		}
		left -= count
		for i := 0; i < count; i++ {
			sp := server.Spec{
				Experiments:   []string{exps[i%len(exps)]},
				Benchmarks:    []string{serveBenches[(i/len(exps))%len(serveBenches)]},
				Insts:         insts,
				Seed:          base,
				ReplayWorkers: 1,
			}
			if sh.class == classFresh {
				sp.Seed = programSeed(seed, uint64(100+i))
			}
			jobs = append(jobs, serveJob{class: sh.class, spec: sp})
		}
	}
	rng := rand.New(rand.NewPCG(programSeed(seed, 1), programSeed(seed, 2)))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// primeSpecs is every cached-class spec, submitted once in set-up.
func primeSpecs(seed uint64, insts int) []serveJob {
	var out []serveJob
	for _, fig := range serveFigures {
		for _, b := range serveBenches {
			out = append(out, serveJob{class: classCached, spec: server.Spec{
				Experiments: []string{fig}, Benchmarks: []string{b}, Insts: insts, Seed: programSeed(seed, 0), ReplayWorkers: 1}})
		}
	}
	return out
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	class   string
	key     string   // spec key, for the reference lookup
	digests []string // SHA-256 of each artifact
	err     string   // why the job failed; empty when it completed

	span               opSpan // submit start to result received
	submitMs, resultMs float64
	queueMs, runMs     float64 // from the server's stamps
}

// jobStatus is the part of the server's job status a client reads.
type jobStatus struct {
	ID          string       `json:"id"`
	State       server.State `json:"state"`
	Error       string       `json:"error"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   *time.Time   `json:"started_at"`
	FinishedAt  *time.Time   `json:"finished_at"`
}

// client talks to one server.
type client struct {
	probe *speedProbe
	http  *http.Client
	base  string
	rec   *recorder
	eng   *engine.Engine // for span deltas
}

// do runs one job end to end: submit, long-poll until terminal, fetch
// the result.
func (cl *client) do(sp server.Spec, class, run string, parent int) (r jobRecord) {
	r = jobRecord{class: class, key: sp.Key()}
	cl.probe.tick()
	job := cl.rec.begin("serve.job", run, parent, cl.eng)
	defer job.end()
	start := time.Now()
	defer func() {
		if r.span.end.IsZero() { // a failed job's latency is its time to failure
			r.span = opSpan{start, time.Now()}
		}
	}()

	body, err := json.Marshal(sp)
	if err != nil {
		r.err = err.Error()
		return r
	}
	sub := cl.rec.begin("server.submit", run, job.id, nil)
	var st jobStatus
	code, err := cl.call(http.MethodPost, "/v1/jobs", body, &st)
	sub.end()
	r.submitMs = msSince(start)
	if err != nil || code != http.StatusAccepted {
		r.err = fmt.Sprintf("submit: status %d: %v", code, err)
		return r
	}
	for !st.State.Terminal() {
		if code, err = cl.call(http.MethodGet, "/v1/jobs/"+st.ID+"?wait=60s", nil, &st); err != nil || code != http.StatusOK {
			r.err = fmt.Sprintf("status: status %d: %v", code, err)
			return r
		}
	}
	if st.StartedAt != nil && st.FinishedAt != nil {
		r.queueMs = float64(st.StartedAt.Sub(st.SubmittedAt)) / 1e6
		r.runMs = float64(st.FinishedAt.Sub(*st.StartedAt)) / 1e6
		cl.rec.add("server.queue", run, job.id, st.SubmittedAt, *st.StartedAt)
		cl.rec.add("server.run", run, job.id, *st.StartedAt, *st.FinishedAt)
	}
	if st.State != server.StateDone {
		r.err = fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return r
	}

	resStart := time.Now()
	res := cl.rec.begin("server.result", run, job.id, nil)
	var out struct {
		Artifacts []server.ResultArtifact `json:"artifacts"`
	}
	code, err = cl.call(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, &out)
	res.end()
	r.resultMs = msSince(resStart)
	r.span = opSpan{start, time.Now()}
	if err != nil || code != http.StatusOK {
		r.err = fmt.Sprintf("result: status %d: %v", code, err)
		return r
	}
	for _, a := range out.Artifacts {
		r.digests = append(r.digests, digest(a.Output))
	}
	return r
}

// call makes one API request and decodes a JSON reply into out.
func (cl *client) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// closedLoop works through jobs with one client per tenant and returns
// each job's record.
func (cl *client) closedLoop(jobs []serveJob, run string) []jobRecord {
	recs := make([]jobRecord, len(jobs))
	loop := cl.rec.begin("serve.loop", run, 0, cl.eng)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, t := range serveTenants {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				sp := jobs[i].spec
				sp.Tenant = tenant
				recs[i] = cl.do(sp, jobs[i].class, fmt.Sprintf("%s/%d", run, i), loop.id)
			}
		}(t.name)
	}
	wg.Wait()
	loop.end()
	return recs
}

// servePassOut is one serve pass: timings and every job it ran.
type servePassOut struct {
	times   passTimes
	primary []jobRecord // the timed closed loop
	others  []jobRecord // priming and the repeat loop
	sum     engine.Summary
	stats   [2]server.Stats // /v1/stats around the primary loop
}

func runServe(c config, o *outcome) error {
	sc := serveScales[c.scale]
	jobs := serveJobList(c.seed, sc.insts, sc.jobs)
	n := passes(c.seconds, sc.nominal)
	o.conditions["insts_per_benchmark"] = sc.insts
	o.conditions["jobs_per_pass"] = sc.jobs
	o.conditions["program_seed"] = programSeed(c.seed, 0)
	o.conditions["passes"] = n
	o.conditions["clients"] = len(serveTenants)
	o.conditions["server_runners"] = 1
	o.conditions["engine_workers"] = 1
	o.conditions["replay_workers"] = 1
	shares := map[string]int{}
	for _, sh := range serveShares {
		shares[sh.class] = sh.pct
	}
	o.conditions["class_shares_pct"] = shares

	var outs []servePassOut
	var ps []passTimes
	for i := 0; i < n; i++ {
		p, err := servePass(c, sc, jobs, nil, fmt.Sprintf("pass-%d", i))
		if err != nil {
			return err
		}
		outs = append(outs, p)
		ps = append(ps, p.times)
	}
	o.e2e, o.samples = endToEnd(ps, peakRSSMiB(), false)

	if c.trace {
		rec := newRecorder()
		rt0 := readRuntime()
		p, err := servePass(c, sc, jobs, rec, "traced")
		if err != nil {
			return err
		}
		addRuntimeLayers(o, rt0, readRuntime())
		o.traced, _ = endToEnd([]passTimes{p.times}, peakRSSMiB(), false)
		outs = append(outs, p)
		addEngineLayers(o, p.sum)
		addServerLayers(o, p)
		fillLayers(o)
		if err := writeSpans(c, o, rec); err != nil {
			return err
		}
	}

	want, err := serveWant(c, sc, jobs)
	if err != nil {
		return err
	}
	for i, p := range outs {
		for _, r := range append(append([]jobRecord(nil), p.primary...), p.others...) {
			o.attempted++
			switch {
			case r.err != "":
				o.fail("serve pass %d %s job %s: %s", i, r.class, r.key, r.err)
			case fmt.Sprint(r.digests) != fmt.Sprint(want[r.key]):
				o.fail("serve pass %d %s job %s: sha256 %v, want %v", i, r.class, r.key, r.digests, want[r.key])
			}
		}
	}
	return nil
}

// serveWant renders every distinct spec of the list with
// server.RunLocal on a memory-only engine, outside any timed region.
func serveWant(c config, sc serveScale, jobs []serveJob) (map[string][]string, error) {
	eng := engine.New(engine.Config{Workers: 1, ReplayWorkers: 1})
	want := map[string][]string{}
	for _, j := range append(primeSpecs(c.seed, sc.insts), jobs...) {
		key := j.spec.Key()
		if _, ok := want[key]; ok {
			continue
		}
		arts, err := server.RunLocal(j.spec, eng)
		if err != nil {
			return nil, fmt.Errorf("serve reference %s: %w", key, err)
		}
		for _, a := range arts {
			want[key] = append(want[key], digest(a.Output))
		}
	}
	return want, nil
}

// servePass starts a fresh server, primes it, runs the closed loop over
// jobs twice (cold, then repeated on the warm server) and shuts it
// down.
func servePass(c config, sc serveScale, jobs []serveJob, rec *recorder, run string) (out servePassOut, err error) {
	dir, cleanup, err := tempDir(c, "serve-*")
	if err != nil {
		return out, err
	}
	defer cleanup()

	tp := startPass(c.probe)
	eng := engine.New(engine.Config{Workers: 1, ReplayWorkers: 1, CacheDir: filepath.Join(dir, "cache")})
	tenants := map[string]float64{}
	for _, t := range serveTenants {
		tenants[t.name] = t.weight
	}
	srv, err := server.New(server.Config{Engine: eng, Tenants: tenants, Runners: 1, JobLog: filepath.Join(dir, "jobs.log")})
	if err != nil {
		return out, fmt.Errorf("serve set-up: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return out, fmt.Errorf("serve set-up: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	srv.Start()
	transport := &http.Transport{MaxIdleConnsPerHost: len(serveTenants) + 1}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := hs.Shutdown(ctx); serr != nil && err == nil {
			err = fmt.Errorf("serve shutdown: %w", serr)
		}
		<-served
		srv.Close()
		transport.CloseIdleConnections()
	}()
	// Priming is set-up, which holds no probe work; the client probes
	// from the closed loop on.
	cl := &client{http: &http.Client{Transport: transport}, base: "http://" + ln.Addr().String(), rec: rec, eng: eng}
	for i, j := range primeSpecs(c.seed, sc.insts) {
		sp := j.spec
		sp.Tenant = serveTenants[0].name
		out.others = append(out.others, cl.do(sp, j.class, fmt.Sprintf("%s/prime-%d", run, i), 0))
	}
	if _, err := cl.call(http.MethodGet, "/v1/stats", nil, &out.stats[0]); err != nil {
		return out, fmt.Errorf("serve stats: %w", err)
	}
	before := eng.Summary()
	cl.probe = c.probe
	tp.primary()
	out.primary = cl.closedLoop(jobs, run)
	loopSum := eng.Summary()
	for _, r := range out.primary {
		out.times.ops = append(out.times.ops, r.span)
		if r.err == "" {
			out.times.completed++
		}
	}
	tp.repeat()
	out.others = append(out.others, cl.closedLoop(jobs, run+"/again")...)
	tp.done(&out.times)
	if _, err := cl.call(http.MethodGet, "/v1/stats", nil, &out.stats[1]); err != nil {
		return out, fmt.Errorf("serve stats: %w", err)
	}

	out.sum = addSummary(loopSum, before, -1)
	out.times.simInst = float64(out.sum.SimInsts)
	return out, nil
}

// addServerLayers records the server metrics of the traced pass's
// primary loop.
func addServerLayers(o *outcome, p servePassOut) {
	var submit, queue, result []float64
	run := map[string][]float64{}
	for _, r := range p.primary {
		submit = append(submit, r.submitMs)
		queue = append(queue, r.queueMs)
		result = append(result, r.resultMs)
		run[r.class] = append(run[r.class], r.runMs)
	}
	ms := func(v float64) metric { return metric{v, "ms"} }
	o.layers["server.submit_ms_p50"] = ms(percentile(submit, 0.50))
	o.layers["server.submit_ms_p99"] = ms(percentile(submit, 0.99))
	o.layers["server.queue_ms_p50"] = ms(percentile(queue, 0.50))
	o.layers["server.queue_ms_p99"] = ms(percentile(queue, 0.99))
	o.layers["server.result_ms_p50"] = ms(percentile(result, 0.50))
	for _, class := range []string{classCached, classFresh, classSweep} {
		o.layers["server."+class+".run_ms_p50"] = ms(percentile(run[class], 0.50))
	}
	rejected := p.stats[1].Rejected + p.stats[1].Invalid - p.stats[0].Rejected - p.stats[0].Invalid
	o.layers["server.rejected"] = metric{float64(rejected), "count"}
}

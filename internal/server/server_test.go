package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/experiments"
)

// TestSubmitContract is the table-driven API contract: every way a
// submission can be malformed or unauthorized, with the status code and
// client-facing message each must produce.
func TestSubmitContract(t *testing.T) {
	_, ts := newQueuedServer(t, Config{
		Tenants:  map[string]float64{"alice": 1, "bob": 2},
		MaxInsts: 50_000,
	})
	cases := []struct {
		name    string
		body    string
		code    int
		wantErr string
	}{
		{"missing tenant", `{"experiments":["fig2"]}`, http.StatusBadRequest, "missing tenant"},
		{"unknown tenant", `{"tenant":"mallory","experiments":["fig2"]}`, http.StatusForbidden, "unknown tenant"},
		{"no experiments", `{"tenant":"alice"}`, http.StatusBadRequest, "no experiments"},
		{"unknown experiment", `{"tenant":"alice","experiments":["fig99"]}`, http.StatusBadRequest, "unknown experiment"},
		{"unserved experiment", `{"tenant":"alice","experiments":["config"]}`, http.StatusBadRequest, "unknown experiment"},
		{"unknown benchmark", `{"tenant":"alice","experiments":["fig2"],"benchmarks":["quake"]}`, http.StatusBadRequest, "unknown benchmark"},
		{"negative insts", `{"tenant":"alice","experiments":["fig2"],"insts":-1}`, http.StatusBadRequest, "negative insts"},
		{"insts over limit", `{"tenant":"alice","experiments":["fig2"],"insts":50001}`, http.StatusBadRequest, "exceeds the server limit"},
		{"negative fwd", `{"tenant":"alice","experiments":["fig2"],"fwd":-2}`, http.StatusBadRequest, "negative forwarding"},
		{"fwd over limit", `{"tenant":"alice","experiments":["fig2"],"fwd":1073741824}`, http.StatusBadRequest, "exceeds the 1024-cycle limit"},
		{"negative epoch", `{"tenant":"alice","experiments":["fig2"],"epoch_len":-8}`, http.StatusBadRequest, "negative epoch"},
		{"negative replay workers", `{"tenant":"alice","experiments":["fig2"],"replay_workers":-3}`, http.StatusBadRequest, "negative replay workers"},
		{"negative deadline", `{"tenant":"alice","experiments":["fig2"],"deadline_secs":-1}`, http.StatusBadRequest, "negative deadline"},
		{"unknown field", `{"tenant":"alice","experiments":["fig2"],"bogus":1}`, http.StatusBadRequest, "bad spec"},
		{"malformed json", `{"tenant":`, http.StatusBadRequest, "bad spec"},
		// Oversized bodies are a permanent client error: 413, never a
		// retryable 503.
		{"oversized body", `{"pad":"` + strings.Repeat("x", 1<<20) + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postBody(t, ts, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("HTTP %d, want %d (body %s)", resp.StatusCode, tc.code, data)
			}
			if !strings.Contains(string(data), tc.wantErr) {
				t.Errorf("error body %q does not mention %q", data, tc.wantErr)
			}
		})
	}
}

// TestQueueFull429 fills the bounded queue on a server whose runners
// never start; the submission past the bound must be rejected with 429
// and a positive Retry-After hint, and must not leave a job behind.
func TestQueueFull429(t *testing.T) {
	s, ts := newQueuedServer(t, Config{MaxQueue: 2})
	sp := Spec{Tenant: "default", Experiments: []string{"fig2"}, Benchmarks: []string{"gzip"}, Insts: 1000}
	submitOK(t, ts, sp)
	submitOK(t, ts, sp)

	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postBody(t, ts, string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: HTTP %d, want 429 (body %s)", resp.StatusCode, data)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(data), "queue full") {
		t.Errorf("429 body %q does not say queue full", data)
	}
	st := s.StatsSnapshot()
	if st.Rejected != 1 || st.Submitted != 2 || st.QueueDepth != 2 {
		t.Errorf("stats after rejection: rejected=%d submitted=%d depth=%d, want 1/2/2",
			st.Rejected, st.Submitted, st.QueueDepth)
	}
}

// TestJobLifecycleBeforeRun pins the pre-execution contract on a server
// with no runners: queued status, 409 on early result retrieval, 404 on
// unknown jobs, and cancel-while-queued.
func TestJobLifecycleBeforeRun(t *testing.T) {
	_, ts := newQueuedServer(t, Config{})
	sp := Spec{Tenant: "default", Experiments: []string{"fig2"}, Benchmarks: []string{"gzip"}, Insts: 1000}
	id := submitOK(t, ts, sp)

	if code := getJSONT(t, ts.URL+"/v1/jobs/"+id+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of queued job: HTTP %d, want 409", code)
	}
	if code := getJSONT(t, ts.URL+"/v1/jobs/no-such-job", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status: HTTP %d, want 404", code)
	}
	if code := getJSONT(t, ts.URL+"/v1/jobs/no-such-job/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown job result: HTTP %d, want 404", code)
	}

	if state := cancelJob(t, ts, id); state != StateCanceled {
		t.Fatalf("cancel of queued job left state %s, want canceled", state)
	}
	var st jobStatus
	getJSONT(t, ts.URL+"/v1/jobs/"+id, &st)
	if st.State != StateCanceled {
		t.Errorf("status after cancel = %s, want canceled", st.State)
	}
	if code := getJSONT(t, ts.URL+"/v1/jobs/"+id+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of canceled job: HTTP %d, want 409", code)
	}
}

// TestCancelMidRun cancels a deliberately oversized job once it is
// observably running; the per-job context must stop it well before it
// would complete, ending in state canceled with no artifacts.
func TestCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-experiment sweep until cancelled")
	}
	_, ts := startTestServer(t, Config{})
	// Big enough that the job takes many seconds uncancelled (full
	// twelve-benchmark workload at 1M insts), so the prompt terminal
	// state below can only come from the per-job context.
	sp := Spec{
		Tenant:      "default",
		Experiments: []string{"fig2", "fig4", "fig5", "fig8"},
		Insts:       1_000_000,
	}
	id := submitOK(t, ts, sp)

	// Wait until it is actually running (not just queued), then cancel.
	deadline := time.Now().Add(time.Minute)
	for {
		var st jobStatus
		getJSONT(t, ts.URL+"/v1/jobs/"+id, &st)
		if st.State == StateRunning {
			break
		}
		if st.State.terminal() {
			t.Fatalf("job reached %s before it could be cancelled mid-run", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelJob(t, ts, id)

	st := waitTerminal(t, ts, id)
	if st.State != StateCanceled {
		t.Fatalf("cancelled job ended %s (err %q), want canceled", st.State, st.Error)
	}
	if code := getJSONT(t, ts.URL+"/v1/jobs/"+id+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of canceled job: HTTP %d, want 409", code)
	}
}

// TestCrossTenantSingleflight — run with -race — storms one identical
// spec from eight tenants at once on a cold shared engine. Every tenant
// must get byte-identical output, and the engine must have simulated the
// work at most as many times as one local run does: concurrent duplicate
// submissions collapse in the singleflight instead of multiplying.
func TestCrossTenantSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep from eight tenants")
	}
	const nTenants = 8
	tenants := map[string]float64{}
	for i := 0; i < nTenants; i++ {
		tenants[fmt.Sprintf("tenant-%d", i)] = float64(1 + i%3)
	}
	srv, ts := startTestServer(t, Config{Tenants: tenants, Runners: nTenants})

	base := Spec{Experiments: []string{"fig2"}, Benchmarks: []string{"gzip", "mcf"}, Insts: 4_000}
	outputs := make([]string, nTenants)
	errs := make([]error, nTenants)
	var wg sync.WaitGroup
	for i := 0; i < nTenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := base
			sp.Tenant = fmt.Sprintf("tenant-%d", i)
			id := submitOK(t, ts, sp)
			st := waitTerminal(t, ts, id)
			if st.State != StateDone {
				errs[i] = fmt.Errorf("tenant %d: job ended %s: %s", i, st.State, st.Error)
				return
			}
			arts := jobArtifacts(t, ts, id)
			for _, a := range arts {
				outputs[i] += a.Output
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < nTenants; i++ {
		if outputs[i] != outputs[0] {
			t.Errorf("tenant %d output diverged from tenant 0:\n--- tenant 0\n%s\n--- tenant %d\n%s",
				i, outputs[0], i, outputs[i])
		}
	}

	// The dedup bound: a solo local run of the same spec counts the
	// unique sim keys; eight concurrent tenants must not exceed it.
	local := engine.New(engine.Config{Workers: runtime.NumCPU()})
	if _, err := experiments.Figure2(experiments.Options{
		Insts: base.Insts, Benchmarks: base.Benchmarks, Engine: local,
	}); err != nil {
		t.Fatal(err)
	}
	solo := local.Summary().SimMisses
	if got := srv.eng.Summary().SimMisses; got > solo {
		t.Errorf("shared engine simulated %d configs for %d identical jobs; a solo run needs %d — singleflight failed to dedup",
			got, nTenants, solo)
	}
}

// TestReplayWorkersAcceptedAndIgnored: a spec's replay_workers is wire
// format only; the job's fan-out is the engine's. Specs differing only
// there (0 and 8) share a Key, are both accepted, and render identical
// bytes, each on its own fresh server so that both really simulate; and
// /v1/stats keeps reporting the engine's fan-out.
func TestReplayWorkersAcceptedAndIgnored(t *testing.T) {
	base := Spec{Tenant: "default", Experiments: []string{"fig4"}, Benchmarks: []string{"gzip"}, Insts: 2000}
	wide := base
	wide.ReplayWorkers = 8
	if base.Key() != wide.Key() {
		t.Fatalf("replay_workers changed the key:\n 0: %s\n 8: %s", base.Key(), wide.Key())
	}
	var outs [][]ResultArtifact
	for _, sp := range []Spec{base, wide} {
		eng := engine.New(engine.Config{Workers: 1, ReplayWorkers: 3})
		_, ts := startTestServer(t, Config{Engine: eng})
		id := submitOK(t, ts, sp) // fails unless 202
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("replay_workers %d: job ended %s (%s)", sp.ReplayWorkers, st.State, st.Error)
		}
		outs = append(outs, jobArtifacts(t, ts, id))
		var stats Stats
		if code := getJSONT(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
			t.Fatalf("GET /v1/stats: HTTP %d", code)
		}
		if stats.ReplayWorkers != 3 {
			t.Errorf("replay_workers %d: /v1/stats reports fan-out %d, want the engine's 3", sp.ReplayWorkers, stats.ReplayWorkers)
		}
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatalf("replay_workers 8 rendered\n%v\nwant (replay_workers 0)\n%v", outs[1], outs[0])
	}
}

// TestServedExperimentNames pins the served set: perfbench's paper
// workload renders every ExperimentNames entry and checks each against a
// recorded digest, and those digests cover exactly these names.
func TestServedExperimentNames(t *testing.T) {
	want := []string{
		"bandwidth-sweep", "consumers", "detector-compare", "fig14", "fig15",
		"fig2", "fig2-attrib", "fig4", "fig5", "fig6", "fig8", "fwd-sweep",
		"group-steer", "icost", "loc-oracle", "predictor-sweep", "replication",
		"slack", "stall-sweep", "window-sweep", "workloads",
	}
	if got := ExperimentNames(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("ExperimentNames() = %q\nwant %q", got, want)
	}
}

// TestEmptyBenchmarkListIsTheFullSuite: a spec with "benchmarks": [] has
// the same Key as one that omits the field, so it must render the same
// bytes — the paper's twelve benchmarks, not an empty figure.
func TestEmptyBenchmarkListIsTheFullSuite(t *testing.T) {
	var empty, omitted Spec
	if err := json.Unmarshal([]byte(`{"tenant":"default","experiments":["fig2"],"benchmarks":[],"insts":2000}`), &empty); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"tenant":"default","experiments":["fig2"],"insts":2000}`), &omitted); err != nil {
		t.Fatal(err)
	}
	if empty.Benchmarks == nil || empty.Key() != omitted.Key() {
		t.Fatalf("setup: benchmarks %#v, keys %q vs %q", empty.Benchmarks, empty.Key(), omitted.Key())
	}
	eng := engine.New(engine.Config{Workers: runtime.NumCPU()})
	want, err := RunLocal(omitted, eng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLocal(empty, eng)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("\"benchmarks\": [] rendered\n%s\nwant (field omitted)\n%s", got[0].Output, want[0].Output)
	}
}

// TestSpelledDefaultsKeyAsOmitted: a spec that spells out the
// experiments-package defaults and one that omits them name the same
// work, so they have equal Keys and run with equal options.
func TestSpelledDefaultsKeyAsOmitted(t *testing.T) {
	d := experiments.Options{}.WithDefaults()
	omitted := Spec{Tenant: "default", Experiments: []string{"fig2"}}
	spelled := Spec{Tenant: "default", Experiments: []string{"fig2"},
		Benchmarks: d.Benchmarks, Insts: d.Insts, Seed: d.Seed, Fwd: d.Fwd}
	if spelled.Key() != omitted.Key() {
		t.Errorf("keys differ:\n spelled %s\n omitted %s", spelled.Key(), omitted.Key())
	}
	if !reflect.DeepEqual(spelled.options(), omitted.options()) {
		t.Errorf("options differ:\n spelled %+v\n omitted %+v", spelled.options(), omitted.options())
	}
	if o := omitted.options(); len(o.Benchmarks) == 0 || o.Insts == 0 || o.Seed == 0 || o.Fwd == 0 {
		t.Errorf("omitted spec runs without defaults: %+v", o)
	}
}

// Package loadgen is the serve path's crash-chaos client: it drives jobs
// against a clustersim server that is repeatedly SIGKILLed and restarted,
// and verifies that no accepted job is lost and no result diverges from
// a local run.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"clustersim/internal/server"
	"clustersim/internal/xrand"
)

// Crash-chaos mode: a load run during which the server process is
// repeatedly SIGKILLed and restarted against the same job log and cache
// directory. Clients submit with stable idempotency keys and retry
// through every failure — connection refused while the server is down,
// 503s from injected request/log faults, 500s from injected response
// faults — and the harness verifies the crash-safety contract end to
// end:
//
//   - no accepted job is lost: every submission the server ever said
//     202/200 to reaches a terminal state after however many restarts
//     (a 404 for an acked ID counts in Lost);
//   - no job runs twice to divergent bytes: every completed job's
//     artifacts are compared against pre-computed local runs
//     (mismatches count in Divergence).
//
// The process-control callbacks (Kill, Start) are supplied by the
// caller: cmd/clustersim's TestCrashChaosKill9 SIGKILLs and re-execs its
// test binary as `clustersim serve`.

// CrashConfig configures one crash-chaos run.
type CrashConfig struct {
	// BaseURL of the target server; it must stay the same across
	// restarts (fixed port).
	BaseURL string
	// Clients is the number of concurrent synthetic clients.
	Clients int
	// JobsPerClient is how many jobs each client drives to a verified
	// terminal state.
	JobsPerClient int
	// Tenants are assigned to clients round-robin; empty means
	// {"default"}.
	Tenants []string
	// Specs is the submission mix, drawn per-client deterministically.
	Specs []server.Spec
	// Seed drives the per-client spec streams and idempotency keys.
	Seed uint64
	// Expected maps Spec.Key() to the artifacts a local run produces;
	// required — divergence checking is the point of the harness.
	Expected map[string][]server.ResultArtifact
	// Client overrides the HTTP client (nil builds a short-timeout one:
	// crash runs want fast failure detection, not patience).
	Client *http.Client

	// Kills is how many SIGKILL/restart cycles to perform.
	Kills int
	// KillEvery is the interval between kills (measured restart-to-kill,
	// so the server gets KillEvery of uptime between cycles).
	KillEvery time.Duration
	// Kill SIGKILLs the serving process. Start launches a fresh one
	// against the same job log and cache dir; the harness then polls
	// /healthz before resuming the kill timer.
	Kill  func() error
	Start func() error
	// HealthTimeout bounds waiting for a restarted server to answer
	// /healthz; 0 means 30s.
	HealthTimeout time.Duration
}

// CrashReport summarizes one crash-chaos run.
type CrashReport struct {
	Clients int `json:"clients"`
	// Jobs reached a terminal state with verified artifacts.
	Jobs  int `json:"jobs"`
	Kills int `json:"kills"`
	// Lost counts accepted jobs (the client held a job ID) the restarted
	// server no longer knew. Must be zero.
	Lost int `json:"lost"`
	// Divergence counts completed jobs whose artifacts differed from the
	// local pre-computed bytes. Must be zero.
	Divergence int `json:"divergence"`
	// Errors counts jobs that never reached a verified terminal state
	// for reasons other than loss (e.g. retry budget exhausted).
	Errors int `json:"errors"`
	// Retries counts client-side resubmissions and re-polls forced by
	// kills and injected faults — the harness's evidence that the run
	// actually exercised failure paths.
	Retries     int     `json:"retries"`
	WallSeconds float64 `json:"wall_seconds"`
}

// RunCrash executes the crash-chaos run.
func RunCrash(cfg CrashConfig) (CrashReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.JobsPerClient <= 0 {
		cfg.JobsPerClient = 1
	}
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = []string{"default"}
	}
	if len(cfg.Specs) == 0 {
		return CrashReport{}, fmt.Errorf("loadgen: no specs in the crash mix")
	}
	if cfg.Expected == nil {
		return CrashReport{}, fmt.Errorf("loadgen: crash mode requires Expected artifacts")
	}
	if cfg.Kills > 0 && (cfg.Kill == nil || cfg.Start == nil) {
		return CrashReport{}, fmt.Errorf("loadgen: Kills > 0 requires Kill and Start callbacks")
	}
	if cfg.KillEvery <= 0 {
		cfg.KillEvery = 500 * time.Millisecond
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 30 * time.Second
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}

	var (
		mu     sync.Mutex
		report CrashReport
	)
	report.Clients = cfg.Clients

	start := time.Now()
	clientsDone := make(chan struct{})

	// Killer: SIGKILL/restart cycles until the budget is spent or the
	// clients finish. Each cycle waits for the replacement to answer
	// /healthz so kills measure uptime, not restart latency.
	var killerWG sync.WaitGroup
	var killErr error
	if cfg.Kills > 0 {
		killerWG.Add(1)
		go func() {
			defer killerWG.Done()
			for i := 0; i < cfg.Kills; i++ {
				select {
				case <-clientsDone:
					return
				case <-time.After(cfg.KillEvery):
				}
				if err := cfg.Kill(); err != nil {
					killErr = fmt.Errorf("loadgen: kill %d: %w", i+1, err)
					return
				}
				if err := cfg.Start(); err != nil {
					killErr = fmt.Errorf("loadgen: restart %d: %w", i+1, err)
					return
				}
				if err := waitHealthy(hc, cfg.BaseURL, cfg.HealthTimeout); err != nil {
					killErr = fmt.Errorf("loadgen: restart %d: %w", i+1, err)
					return
				}
				mu.Lock()
				report.Kills++
				mu.Unlock()
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := xrand.New(cfg.Seed*0x9e3779b97f4a7c15 + uint64(c) + 1)
			tenant := cfg.Tenants[c%len(cfg.Tenants)]
			for i := 0; i < cfg.JobsPerClient; i++ {
				sp := cfg.Specs[rng.Intn(len(cfg.Specs))]
				sp.Tenant = tenant
				idem := fmt.Sprintf("crash-%d-c%d-j%d", cfg.Seed, c, i)
				lost, diverged, retries, err := runOneCrash(hc, cfg.BaseURL, sp, idem, cfg.Expected)
				mu.Lock()
				report.Retries += retries
				switch {
				case lost:
					report.Lost++
				case err != nil:
					report.Errors++
				case diverged:
					report.Divergence++
					report.Jobs++
				default:
					report.Jobs++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(clientsDone)
	killerWG.Wait()
	report.WallSeconds = time.Since(start).Seconds()
	if killErr != nil {
		return report, killErr
	}
	return report, nil
}

// crashAttempts bounds per-request retry loops. Generous: a kill cycle
// can cost seconds of connection-refused, and the point of the harness
// is that patience — not luck — recovers every job.
const crashAttempts = 300

// runOneCrash drives one job to a verified terminal state through any
// number of server crashes. lost means the server forgot an acked job.
func runOneCrash(hc *http.Client, base string, sp server.Spec, idem string, expected map[string][]server.ResultArtifact) (lost, diverged bool, retries int, err error) {
	// Submit until an ID comes back. Every submission carries the same
	// Idempotency-Key, so resubmitting after a lost response cannot
	// double-enqueue: the server answers with the existing job.
	var id string
	for attempt := 0; ; attempt++ {
		var retry bool
		id, retry, err = submitIdem(hc, base, sp, idem)
		if err == nil {
			break
		}
		if !retry || attempt >= crashAttempts {
			return false, false, retries, err
		}
		retries++
		time.Sleep(backoff(attempt))
	}

	// Poll to terminal. A 404 here is the contract violation the harness
	// exists to catch: the server acked this ID (the submit loop only
	// exits with one) and a restart forgot it. Tolerate a handful in
	// case a poll races a dying process's last gasp.
	var st struct {
		State server.State `json:"state"`
		Error string       `json:"error"`
	}
	notFound := 0
	for attempt := 0; ; attempt++ {
		code, jerr := getJSONCode(hc, base+"/v1/jobs/"+id+"?wait=2s", &st)
		switch {
		case jerr == nil && code == http.StatusOK:
			if st.State.Terminal() {
				goto terminal
			}
		case code == http.StatusNotFound:
			notFound++
			if notFound >= 5 {
				return true, false, retries, nil
			}
			retries++
		default:
			retries++
		}
		if attempt >= crashAttempts {
			return false, false, retries, fmt.Errorf("loadgen: job %s never terminal after %d polls", id, attempt+1)
		}
		if jerr != nil || code != http.StatusOK {
			time.Sleep(backoff(attempt))
		}
	}
terminal:
	if st.State != server.StateDone {
		return false, false, retries, fmt.Errorf("loadgen: job %s ended %s: %s", id, st.State, st.Error)
	}

	// Fetch and verify the artifacts byte-for-byte against the local run.
	var res struct {
		Artifacts []server.ResultArtifact `json:"artifacts"`
	}
	for attempt := 0; ; attempt++ {
		code, jerr := getJSONCode(hc, base+"/v1/jobs/"+id+"/result", &res)
		if jerr == nil && code == http.StatusOK {
			break
		}
		if code == http.StatusNotFound {
			notFound++
			if notFound >= 5 {
				return true, false, retries, nil
			}
		}
		if attempt >= crashAttempts {
			return false, false, retries, fmt.Errorf("loadgen: job %s result unreachable: %v (HTTP %d)", id, jerr, code)
		}
		retries++
		time.Sleep(backoff(attempt))
	}
	want, ok := expected[sp.Key()]
	if !ok || !artifactsEqual(res.Artifacts, want) {
		return false, true, retries, nil
	}
	return false, false, retries, nil
}

// artifactsEqual compares artifact lists byte for byte.
func artifactsEqual(got, want []server.ResultArtifact) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// submitIdem POSTs the spec with an Idempotency-Key. retry reports
// whether the failure is transient (server down, 429/5xx, injected
// fault) rather than a contract error (4xx).
func submitIdem(hc *http.Client, base string, sp server.Spec, idem string) (id string, retry bool, err error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", false, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", idem)
	resp, err := hc.Do(req)
	if err != nil {
		return "", true, err // connection refused mid-restart, timeout, ...
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
		var st struct {
			ID string `json:"id"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&st); derr != nil || st.ID == "" {
			return "", true, fmt.Errorf("loadgen: submit: bad body: %v", derr)
		}
		return st.ID, false, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return "", true, fmt.Errorf("loadgen: submit: HTTP %d: %s", resp.StatusCode, e.Error)
	default:
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return "", false, fmt.Errorf("loadgen: submit: HTTP %d: %s", resp.StatusCode, e.Error)
	}
}

// getJSONCode GETs url into out, returning the status code (0 on
// transport error). Non-200 bodies are drained, not decoded.
func getJSONCode(hc *http.Client, url string, out any) (int, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("loadgen: GET %s: HTTP %d", url, resp.StatusCode)
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// waitHealthy polls /healthz until it answers 200 or the timeout lapses.
func waitHealthy(hc *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: server not healthy within %s", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// backoff is the retry sleep for attempt n: 10ms doubling to a 500ms
// cap, enough to ride out a restart without hammering the socket.
func backoff(attempt int) time.Duration {
	d := 10 * time.Millisecond << uint(attempt)
	if attempt > 6 || d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d
}

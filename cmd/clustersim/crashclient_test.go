package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"clustersim/internal/server"
	"clustersim/internal/xrand"
)

// The crash-chaos client drives jobs against a `clustersim serve` that
// is repeatedly SIGKILLed and restarted against the same job log and
// cache directory. Clients submit with stable idempotency keys and retry
// through every failure — connection refused while the server is down,
// 503s from injected request/log faults, 500s from injected response
// faults — and the report checks the crash-safety contract end to end:
//
//   - no accepted job is lost: every submission the server ever said
//     202/200 to reaches a terminal state after however many restarts
//     (a 404 for an acked ID counts in Lost);
//   - no job runs twice to divergent bytes: every completed job's
//     artifacts are compared against pre-computed local runs
//     (mismatches count in Divergence).

// crashConfig configures one crash-chaos run.
type crashConfig struct {
	// BaseURL of the target server; it must stay the same across
	// restarts (fixed port).
	BaseURL string
	// Clients concurrent clients each drive JobsPerClient jobs to a
	// verified terminal state.
	Clients, JobsPerClient int
	// Specs is the submission mix, drawn per-client deterministically
	// from Seed, which also names the idempotency keys.
	Specs []server.Spec
	Seed  uint64
	// Expected maps Spec.Key() to the artifacts a local run produces.
	Expected map[string][]server.ResultArtifact

	// Kills SIGKILL/restart cycles run KillEvery apart (measured
	// restart-to-kill, so the server gets KillEvery of uptime between
	// cycles). Kill SIGKILLs the serving process; Start launches a fresh
	// one against the same job log and cache dir, and the client then
	// waits for /healthz before resuming the kill timer.
	Kills       int
	KillEvery   time.Duration
	Kill, Start func() error
}

// crashReport summarizes one crash-chaos run.
type crashReport struct {
	// Jobs reached a terminal state with verified artifacts.
	Jobs  int
	Kills int
	// Lost counts accepted jobs (the client held a job ID) the restarted
	// server no longer knew. Must be zero.
	Lost int
	// Divergence counts completed jobs whose artifacts differed from the
	// local pre-computed bytes. Must be zero.
	Divergence int
	// Errors counts jobs that never reached a verified terminal state
	// for reasons other than loss (e.g. retry budget exhausted).
	Errors int
	// Retries counts client-side resubmissions and re-polls forced by
	// kills and injected faults — the evidence that the run actually
	// exercised failure paths.
	Retries int
}

// runCrash executes the crash-chaos run.
func runCrash(cfg crashConfig) (crashReport, error) {
	// A short timeout: crash runs want fast failure detection, not
	// patience; it still outlasts the 2s long-poll.
	hc := &http.Client{Timeout: 10 * time.Second}
	var (
		mu     sync.Mutex
		report crashReport
	)
	clientsDone := make(chan struct{})

	// Killer: SIGKILL/restart cycles until the budget is spent or the
	// clients finish. Each cycle waits for the replacement to answer
	// /healthz so kills measure uptime, not restart latency.
	var killerWG sync.WaitGroup
	var killErr error
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
				killErr = fmt.Errorf("kill %d: %w", i+1, err)
				return
			}
			if err := cfg.Start(); err != nil {
				killErr = fmt.Errorf("restart %d: %w", i+1, err)
				return
			}
			if !waitHealthy(hc, cfg.BaseURL, 30*time.Second) {
				killErr = fmt.Errorf("restart %d: server not healthy within 30s", i+1)
				return
			}
			mu.Lock()
			report.Kills++
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := xrand.New(cfg.Seed*0x9e3779b97f4a7c15 + uint64(c) + 1)
			for i := 0; i < cfg.JobsPerClient; i++ {
				sp := cfg.Specs[rng.Intn(len(cfg.Specs))]
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
	return report, killErr
}

// crashAttempts bounds per-request retry loops. Generous: a kill cycle
// can cost seconds of connection-refused, and the point of the client
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

	// Poll to terminal. A 404 here is the contract violation the client
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
			return false, false, retries, fmt.Errorf("job %s never terminal after %d polls", id, attempt+1)
		}
		if jerr != nil || code != http.StatusOK {
			time.Sleep(backoff(attempt))
		}
	}
terminal:
	if st.State != server.StateDone {
		return false, false, retries, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
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
			return false, false, retries, fmt.Errorf("job %s result unreachable: %v (HTTP %d)", id, jerr, code)
		}
		retries++
		time.Sleep(backoff(attempt))
	}
	want, ok := expected[sp.Key()]
	return false, !ok || !slices.Equal(res.Artifacts, want), retries, nil
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
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		var st struct {
			ID string `json:"id"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&st); derr != nil || st.ID == "" {
			return "", true, fmt.Errorf("submit: bad body: %v", derr)
		}
		return st.ID, false, nil
	}
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	retry = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
	return "", retry, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, e.Error)
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
		return resp.StatusCode, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
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

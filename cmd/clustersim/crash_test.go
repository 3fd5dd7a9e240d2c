package main

import (
	"bufio"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/server"
	"clustersim/internal/server/loadgen"
)

// The kill -9 differential needs a real process to kill, so it re-execs
// the test binary with `serve …` arguments: TestMain hands them to main,
// which runs the production `clustersim serve` path. SIGKILL then lands
// on a genuine OS process whose only persistent state is the job log and
// cache directory — exactly the production crash.

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		main()
		return
	}
	os.Exit(m.Run())
}

// chaosSeed makes the first JSON response of every server incarnation
// an injected fault (server.response.write fires on its first draw at
// rate 0.05), so each incarnation that answers a request injects one.
const chaosSeed = "10"

// TestCrashChaosKill9: clients drive jobs with stable idempotency keys
// while `clustersim serve` is SIGKILLed and restarted against the same
// job log and cache dir, with 5% fault injection live inside the server
// (CLUSTERSIM_CHAOS_SEED/RATE). Afterwards: faults were injected, zero
// accepted jobs lost, zero divergent results, every job completed.
func TestCrashChaosKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kill -9s server subprocesses")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Fixed port across restarts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr

	mix := []server.Spec{
		{Experiments: []string{"fig2"}, Benchmarks: []string{"gzip"}, Insts: 60_000},
		{Experiments: []string{"fig2"}, Benchmarks: []string{"gzip"}, Insts: 60_000, Seed: 2},
		{Experiments: []string{"fig4"}, Benchmarks: []string{"mcf"}, Insts: 60_000},
	}
	expected := map[string][]server.ResultArtifact{}
	localEng := engine.New(engine.Config{Workers: runtime.GOMAXPROCS(0)})
	for _, sp := range mix {
		sp.Tenant = "default"
		arts, err := server.RunLocal(sp, localEng)
		if err != nil {
			t.Fatal(err)
		}
		expected[sp.Key()] = arts
	}

	hc := &http.Client{Timeout: time.Second}
	var (
		cmd    *exec.Cmd
		faults int64
	)
	start := func() error {
		cmd = exec.Command(bin, "serve", "-addr", addr,
			"-job-log", filepath.Join(dir, "joblog"),
			"-cache-dir", filepath.Join(dir, "cache"))
		cmd.Env = append(os.Environ(),
			"CLUSTERSIM_CHAOS_SEED="+chaosSeed,
			"CLUSTERSIM_CHAOS_RATE=0.05",
		)
		cmd.Stderr = os.Stderr
		return cmd.Start()
	}
	kill := func() error {
		if cmd == nil || cmd.Process == nil {
			return nil
		}
		faults += faultsInjected(hc, base)
		cmd.Process.Kill()
		cmd.Wait()
		cmd = nil
		return nil
	}
	if err := start(); err != nil {
		t.Fatal(err)
	}
	defer kill()
	if !waitHealthy(hc, base, 30*time.Second) {
		t.Fatal("server not healthy within 30s")
	}

	rep, err := loadgen.RunCrash(loadgen.CrashConfig{
		BaseURL:       base,
		Clients:       4,
		JobsPerClient: 3,
		Specs:         mix,
		Seed:          1,
		Expected:      expected,
		Kills:         3,
		KillEvery:     30 * time.Millisecond,
		Kill:          kill,
		Start:         start,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults += faultsInjected(hc, base)
	t.Logf("crash report: %+v; %d faults injected", rep, faults)
	if rep.Kills == 0 {
		t.Fatal("no kill cycle completed — the differential proved nothing")
	}
	if faults == 0 {
		t.Fatal("no fault injected in any server incarnation — chaos was not live")
	}
	if rep.Lost > 0 {
		t.Fatalf("%d accepted jobs lost across kill -9 restarts", rep.Lost)
	}
	if rep.Divergence > 0 {
		t.Fatalf("%d jobs completed with bytes diverging from local runs", rep.Divergence)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d jobs never completed", rep.Errors)
	}
	if rep.Jobs != 4*3 {
		t.Fatalf("%d jobs verified, want 12", rep.Jobs)
	}
}

// waitHealthy polls /healthz until it answers 200 or the timeout lapses.
func waitHealthy(hc *http.Client, base string, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if resp, err := hc.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
	}
	return false
}

// faultsInjected scrapes the running server's engine.faults.injected
// counter from /metrics; 0 when the server cannot be reached.
func faultsInjected(hc *http.Client, base string) int64 {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "engine.faults.injected "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

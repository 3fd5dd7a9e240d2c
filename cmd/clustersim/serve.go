package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/faultinject"
	"clustersim/internal/metrics"
	"clustersim/internal/server"
)

// serveMain runs `clustersim serve`: the multi-tenant simulation service
// (see internal/server). One shared engine backs every tenant, so
// identical work submitted by different tenants caches and deduplicates
// across the fleet.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "engine worker-pool size")
	replayWorkers := fs.Int("replay-workers", 0, "default intra-job variant fan-out width (0: a per-job share of GOMAXPROCS); the server clamps per-job requests queue-aware")
	cacheDir := fs.String("cache-dir", "", "on-disk cache directory for results, analyses and schedules (traces are regenerated; empty: memory only)")
	cacheMem := fs.Int64("cache-mem", engine.DefaultMaxCacheBytes>>20, cacheMemUsage)
	tenantsFlag := fs.String("tenants", "", `tenant fair-share weights as "name:weight,name:weight" (empty: single "default" tenant)`)
	queueMax := fs.Int("queue", 256, "max queued jobs before submissions get 429")
	runners := fs.Int("runners", 0, "concurrent job executors (0: GOMAXPROCS)")
	maxInsts := fs.Int("max-insts", 2_000_000, "per-benchmark instruction cap on submitted specs")
	jobLog := fs.String("job-log", "", "durable job log path: accepted jobs are fsynced there before the 202 and replayed on restart (empty: in-memory only)")
	jobDeadline := fs.Duration("job-deadline", 0, "default stuck-job watchdog deadline per job (0: none)")
	maxJobDeadline := fs.Duration("max-job-deadline", 0, "clamp on spec-requested deadline_secs (0: no clamp)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM/SIGINT lets running jobs finish before cancelling them")
	readHeaderTimeout := fs.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slow-loris guard)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (0: none; SSE responses are unaffected)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: clustersim serve [flags]")
		fmt.Fprintln(os.Stderr, "serves the multi-tenant job API (see internal/server for endpoints)")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	tenants, err := parseTenants(*tenantsFlag)
	if err == nil {
		err = checkFlags(fs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim serve:", err)
		return 2
	}

	// The server injects faults under the same environment variables as
	// the experiment CLI (see faultinject.EnableFromEnv).
	if faultinject.EnableFromEnv() {
		fmt.Fprintln(os.Stderr, "clustersim serve: chaos enabled from CLUSTERSIM_CHAOS_SEED/RATE")
	}

	reg := metrics.NewRegistry()
	eng := engine.New(engine.Config{
		Workers:       *jobs,
		ReplayWorkers: *replayWorkers,
		CacheDir:      *cacheDir,
		MaxCacheBytes: *cacheMem * (1 << 20),
		Metrics:       reg,
	})
	if err := eng.Summary().DiskErr; err != nil {
		fmt.Fprintf(os.Stderr, "clustersim serve: disk cache disabled: %v\n", err)
	}
	srv, err := server.New(server.Config{
		Engine:             eng,
		Metrics:            reg,
		Tenants:            tenants,
		MaxQueue:           *queueMax,
		Runners:            *runners,
		MaxInsts:           *maxInsts,
		JobLog:             *jobLog,
		DefaultJobDeadline: *jobDeadline,
		MaxJobDeadline:     *maxJobDeadline,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim serve:", err)
		return 1
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim serve:", err)
		return 1
	}
	hs := newHTTPServer(srv.Handler(), *readHeaderTimeout, *readTimeout, *idleTimeout)
	fmt.Fprintf(os.Stderr, "clustersim serve: listening on http://%s (POST /v1/jobs; /metrics; /v1/stats)\n", ln.Addr())

	// SIGTERM (what orchestrators send) and SIGINT both begin a graceful
	// drain: stop admitting, let running jobs finish within -drain-timeout
	// (queued jobs stay persisted in the job log), then shut the HTTP
	// listener down with its own bound so one hung SSE client cannot block
	// the exit forever.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "clustersim serve: draining")
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		ds := srv.Drain(dctx)
		dcancel()
		fmt.Fprintf(os.Stderr, "clustersim serve: drain done: %d completed, %d persisted for restart, %d aborted\n",
			ds.Completed, ds.Persisted, ds.Aborted)
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := hs.Shutdown(sctx); err != nil {
			hs.Close() // hung connections: close them rather than hang the exit
		}
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "clustersim serve:", err)
		return 1
	}
	srv.Close()
	eng.RenderSummary(os.Stderr)
	return 0
}

// newHTTPServer hardens the listener against misbehaving clients: a
// slow-loris connection trickling header bytes is cut at
// readHeaderTimeout, a stalled request body at readTimeout, and idle
// keep-alive connections are reaped at idleTimeout. WriteTimeout stays 0
// because SSE streams are legitimately long-lived; dead SSE clients are
// reaped by the server's heartbeat instead.
func newHTTPServer(h http.Handler, readHeaderTimeout, readTimeout, idleTimeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// parseTenants parses "name:weight,name:weight" (weight optional,
// default 1).
func parseTenants(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	tenants := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, weightStr, hasWeight := strings.Cut(strings.TrimSpace(part), ":")
		if name == "" {
			return nil, fmt.Errorf("empty tenant name in -tenants %q", s)
		}
		weight := 1.0
		if hasWeight {
			var err error
			weight, err = strconv.ParseFloat(weightStr, 64)
			if err != nil || weight <= 0 {
				return nil, fmt.Errorf("bad weight %q for tenant %q", weightStr, name)
			}
		}
		tenants[name] = weight
	}
	return tenants, nil
}

package server

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"clustersim/internal/engine"
)

// newLogServer builds a server on the job log at path without starting
// its runners, so restored jobs stay exactly as replay left them.
func newLogServer(t *testing.T, path string) *Server {
	t.Helper()
	s, err := New(Config{Engine: engine.New(engine.Config{Workers: runtime.NumCPU()}), JobLog: path})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wantJob checks one replayed job's state, error and artifact outputs.
func wantJob(t *testing.T, s *Server, id string, state State, errMsg string, outputs ...string) *Job {
	t.Helper()
	j := s.jobs[id]
	if j == nil {
		t.Fatalf("%s not restored", id)
	}
	arts, st, msg := j.results()
	var got []string
	for _, a := range arts {
		got = append(got, a.Output)
	}
	if st != state || msg != errMsg || strings.Join(got, "|") != strings.Join(outputs, "|") {
		t.Fatalf("%s: state %s, error %q, outputs %q; want %s, %q, %q", id, st, msg, got, state, errMsg, outputs)
	}
	return j
}

// TestJobLogRoundTrip: records a server appends come back intact from a
// successor's replay, including a finished record's artifacts and the
// accepted record's tenant and idempotency key.
func TestJobLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	a := newLogServer(t, path)
	sp := Spec{Tenant: "alice", Experiments: []string{"fig2"}, Insts: 500}
	for _, rec := range []jlRecord{
		{Kind: jlAccepted, ID: "job-000001", Tenant: "alice", Spec: &sp, IdemKey: "k1", SubmittedAt: time.Unix(100, 0).UTC()},
		{Kind: jlStarted, ID: "job-000001"},
		{Kind: jlFinished, ID: "job-000001", State: StateDone,
			Artifacts: []ResultArtifact{{Experiment: "fig2", Output: "table\n"}}},
	} {
		if err := a.logAppend(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()

	b := newLogServer(t, path)
	defer b.Close()
	j := wantJob(t, b, "job-000001", StateDone, "", "table\n")
	if j.Spec.Tenant != "alice" || j.idemKey != "k1" || !j.submitted.Equal(time.Unix(100, 0)) {
		t.Fatalf("accepted record mangled: tenant %q, key %q, submitted %v", j.Spec.Tenant, j.idemKey, j.submitted)
	}
}

// TestJobLogReplaysCommittedFixture: the on-disk format is stable. The
// fixture is a job log written by an earlier build: job-000001 done,
// job-000002 accepted and started, job-000003 failed.
func TestJobLogReplaysCommittedFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "joblog-parent.csf"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "joblog")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newLogServer(t, path)
	defer s.Close()
	j := wantJob(t, s, "job-000001", StateDone, "", "table\n")
	if j.Spec.Tenant != "alice" || j.idemKey != "k1" || s.idemIndex[idxKey("alice", "k1")] != "job-000001" {
		t.Fatalf("job-000001: tenant %q, key %q not restored", j.Spec.Tenant, j.idemKey)
	}
	j = wantJob(t, s, "job-000002", StateQueued, "")
	if j.Spec.Insts != 700 || j.Spec.Seed != 2 || j.Spec.Benchmarks[0] != "mcf" {
		t.Fatalf("job-000002 spec mangled: %+v", j.Spec)
	}
	wantJob(t, s, "job-000003", StateFailed, "boom")
	if r, q := s.cRestored.Load(), s.cRequeued.Load(); r != 2 || q != 1 {
		t.Fatalf("restored/requeued = %d/%d, want 2/1", r, q)
	}
}

// TestCloseCountsJobLogError: Close reports a job log that fails to
// close in server.joblog.error. A log closed twice fails the second
// close, as a failed final fsync would.
func TestCloseCountsJobLogError(t *testing.T) {
	s := newLogServer(t, filepath.Join(t.TempDir(), "joblog"))
	if err := s.jlog.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if n := s.cLogErr.Load(); n != 1 {
		t.Fatalf("server.joblog.error = %d after a failed close, want 1", n)
	}
}

// TestNewClosesJobLogWhenCompactionFails: a start that fails after the
// log is open must not leak the log's file. The log's 250-byte name
// leaves no room for its compaction temp's suffix, so compaction fails.
func TestNewClosesJobLogWhenCompactionFails(t *testing.T) {
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.Repeat("j", 250))
	if _, err := New(Config{Engine: engine.New(engine.Config{}), JobLog: path}); err == nil {
		t.Fatal("New succeeded although compaction cannot create its temp")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	for _, fd := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); target == path {
			t.Fatalf("descriptor %s still open on the job log", fd.Name())
		}
	}
}

// TestMergeRecords: replay state merges per job regardless of record
// interleaving, and records without an accepted frame are dropped.
func TestMergeRecords(t *testing.T) {
	sp := Spec{Tenant: "a", Experiments: []string{"fig2"}}
	order, jobs := mergeRecords([]jlRecord{
		// started logged before accepted (runner raced the submit path).
		{Kind: jlStarted, ID: "j1"},
		{Kind: jlAccepted, ID: "j1", Spec: &sp},
		{Kind: jlAccepted, ID: "j2", Spec: &sp},
		{Kind: jlFinished, ID: "j2", State: StateDone, Artifacts: []ResultArtifact{{Experiment: "fig2", Output: "x"}}},
		// never accepted: must be dropped by the caller (accepted=false).
		{Kind: jlFinished, ID: "ghost", State: StateDone},
	})
	if len(order) != 3 || order[0] != "j1" || order[1] != "j2" {
		t.Fatalf("order %v, want [j1 j2 ghost]", order)
	}
	if !jobs["j1"].accepted || !jobs["j1"].started || jobs["j1"].finished {
		t.Fatalf("j1 state %+v, want accepted+started, not finished", jobs["j1"])
	}
	if !jobs["j2"].finished || jobs["j2"].state != StateDone || len(jobs["j2"].arts) != 1 {
		t.Fatalf("j2 state %+v, want finished done with artifacts", jobs["j2"])
	}
	if jobs["ghost"].accepted {
		t.Fatal("ghost (never accepted) reported accepted")
	}
}

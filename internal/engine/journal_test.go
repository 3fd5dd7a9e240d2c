package engine

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"clustersim/internal/machine"
	"clustersim/internal/predictor"
)

// TestJournalResume is the checkpoint/resume core: keys completed under
// a journal are served from replay in a later process without re-running
// their jobs, counted as resume hits.
func TestJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")

	e1 := New(Config{Workers: 2})
	if n, err := e1.OpenJournal(path, false); err != nil || n != 0 {
		t.Fatalf("fresh journal: restored=%d err=%v", n, err)
	}
	a1, err := e1.Sim(testSimKey(1), tinyRun(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Sim(testSimKey(2), tinyRun(2)); err != nil {
		t.Fatal(err)
	}
	if err := e1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// "Crash" and resume: a fresh engine replays the journal and serves
	// both keys without simulating; only a genuinely new key runs.
	e2 := New(Config{Workers: 2})
	restored, err := e2.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseJournal()
	if restored != 2 {
		t.Fatalf("restored %d records, want 2", restored)
	}
	var runs atomic.Int64
	mustNotRun := func() (*machine.Machine, Artifact, error) {
		runs.Add(1)
		return runTiny(1)
	}
	a2, err := e2.Sim(testSimKey(1), mustNotRun)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Fatal("journaled key re-simulated on resume")
	}
	if a2.Res != a1.Res {
		t.Fatal("journal round trip changed the result")
	}
	if _, err := e2.Sim(testSimKey(3), tinyRun(3)); err != nil {
		t.Fatal(err)
	}
	s := e2.Summary()
	if s.ResumeRestored != 2 || s.ResumeHits != 1 {
		t.Errorf("resume restored/hits = %d/%d, want 2/1", s.ResumeRestored, s.ResumeHits)
	}
	if s.SimMisses != 1 {
		t.Errorf("SimMisses = %d, want 1 (only the new key)", s.SimMisses)
	}
}

// TestJournalRestoredExactKeyIsAMiss: journal records carry only the
// Result, so a restored entry of a TrackExact key is incomplete (its
// artifact lacks the tracker) and the key re-simulates on request.
func TestJournalRestoredExactKeyIsAMiss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	key := testSimKey(1)
	key.TrackExact = true
	var runs atomic.Int64
	run := func() (*machine.Machine, Artifact, error) {
		runs.Add(1)
		return nil, Artifact{Res: machine.Result{Insts: 90}, Exact: predictor.NewExact()}, nil
	}
	e1 := New(Config{})
	if _, err := e1.OpenJournal(path, false); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Sim(key, run); err != nil {
		t.Fatal(err)
	}
	if err := e1.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{})
	if n, err := e2.OpenJournal(path, true); err != nil || n != 1 {
		t.Fatalf("restored=%d err=%v, want 1 record", n, err)
	}
	defer e2.CloseJournal()
	a, err := e2.Sim(key, run)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 || a.Exact == nil {
		t.Errorf("restored exact key: %d runs (want 2), tracker %v", runs.Load(), a.Exact)
	}
	if s := e2.Summary(); s.ResumeHits != 0 || s.SimMisses != 1 {
		t.Errorf("resume hits/sim misses = %d/%d, want 0/1", s.ResumeHits, s.SimMisses)
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn final record;
// replay must restore the valid prefix, truncate the tail, and leave the
// file appendable.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	e1 := New(Config{})
	if _, err := e1.OpenJournal(path, false); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		s := seed
		if _, err := e1.Sim(testSimKey(s), tinyRun(s)); err != nil {
			t.Fatal(err)
		}
	}
	e1.CloseJournal()

	// Tear the last record in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{})
	restored, err := e2.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d from torn journal, want 2", restored)
	}
	// The lost key just recomputes and re-journals.
	var runs atomic.Int64
	if _, err := e2.Sim(testSimKey(3), func() (*machine.Machine, Artifact, error) {
		runs.Add(1)
		return runTiny(3)
	}); err != nil || runs.Load() != 1 {
		t.Fatalf("torn-off key: err=%v runs=%d", err, runs.Load())
	}
	e2.CloseJournal()

	// After truncate+append the stream is whole again: all 3 restore.
	e3 := New(Config{})
	restored, err = e3.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	e3.CloseJournal()
	if restored != 3 {
		t.Fatalf("restored %d after repair, want 3", restored)
	}
}

// TestJournalGarbage: a journal full of garbage restores nothing and
// does not break the run.
func TestJournalGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	restored, err := e.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.CloseJournal()
	if restored != 0 {
		t.Fatalf("restored %d from garbage", restored)
	}
	if _, err := e.Sim(testSimKey(1), tinyRun(1)); err != nil {
		t.Fatal(err)
	}
}

// TestJournalWithoutResumeTruncates: opening without resume starts a
// fresh journal even when one exists.
func TestJournalWithoutResumeTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	e1 := New(Config{})
	if _, err := e1.OpenJournal(path, false); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Sim(testSimKey(1), tinyRun(1)); err != nil {
		t.Fatal(err)
	}
	e1.CloseJournal()

	e2 := New(Config{})
	if _, err := e2.OpenJournal(path, false); err != nil {
		t.Fatal(err)
	}
	e2.CloseJournal()
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("non-resume open kept %d bytes", fi.Size())
	}
}

// TestJournalDoubleOpenRejected guards the single-journal invariant.
func TestJournalDoubleOpenRejected(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{})
	if _, err := e.OpenJournal(filepath.Join(dir, "a.journal"), false); err != nil {
		t.Fatal(err)
	}
	defer e.CloseJournal()
	if _, err := e.OpenJournal(filepath.Join(dir, "b.journal"), false); err == nil {
		t.Fatal("second OpenJournal succeeded")
	}
}

// TestCloseJournalReportsSyncFailure: a journal whose final fsync fails
// must say so even though its close succeeds. The journal is pointed at
// a pipe, which closes cleanly but cannot be fsynced.
func TestCloseJournalReportsSyncFailure(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := w.Sync(); err == nil {
		t.Skip("this platform can fsync a pipe")
	}
	e := New(Config{})
	e.journal = &journal{path: "pipe", f: w}
	if err := e.CloseJournal(); err == nil {
		t.Fatal("CloseJournal hid the failed sync")
	}
	if e.JournalPath() != "" {
		t.Error("journal still attached after close")
	}
}

package engine

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"clustersim/internal/faultinject"
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

// TestJournalTornAppendKeepsLaterRecords: an append torn by a short
// write is rolled back, so it never hides the records appended after it.
// Every append that counted no disk error must restore on resume.
func TestJournalTornAppendKeepsLaterRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	e1 := New(Config{})
	if _, err := e1.OpenJournal(path, false); err != nil {
		t.Fatal(err)
	}
	result := func(seed uint64) machine.Result { return machine.Result{Insts: int64(seed), Cycles: 7 * int64(seed)} }
	faultinject.Enable(5, 0.4)
	var kept []uint64
	for seed := uint64(1); seed <= 40; seed++ {
		before := e1.Summary().DiskErrors
		if _, err := e1.Sim(testSimKey(seed), func() (*machine.Machine, Artifact, error) {
			return nil, Artifact{Res: result(seed)}, nil
		}); err != nil {
			t.Fatal(err)
		}
		if e1.Summary().DiskErrors == before {
			kept = append(kept, seed)
		}
	}
	torn := faultinject.Snapshot().Truncates
	faultinject.Disable()
	if torn == 0 || len(kept) == 0 {
		t.Fatalf("%d short writes injected, %d appends kept: the test proves nothing", torn, len(kept))
	}
	if err := e1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{})
	if _, err := e2.OpenJournal(path, true); err != nil {
		t.Fatal(err)
	}
	defer e2.CloseJournal()
	for _, seed := range kept {
		a, err := e2.Sim(testSimKey(seed), func() (*machine.Machine, Artifact, error) {
			t.Errorf("seed %d: acknowledged journal record lost", seed)
			return nil, Artifact{Res: result(seed)}, nil
		})
		if err != nil || a.Res != result(seed) {
			t.Fatalf("seed %d: restored %+v, err %v", seed, a.Res, err)
		}
	}
}

// TestJournalReplaysCommittedFixture: the on-disk format is stable. The
// fixture holds three result records written by an earlier build, the
// last one torn; the first two must restore with their values.
func TestJournalReplaysCommittedFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "journal-torn.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	restored, err := e.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.CloseJournal()
	if restored != 2 {
		t.Fatalf("restored %d records from the fixture, want 2", restored)
	}
	for seed := int64(1); seed <= 2; seed++ {
		want := machine.Result{ConfigName: "1x8w", Insts: 100 * seed, Cycles: 150 * seed}
		a, err := e.Sim(testSimKey(uint64(seed)), func() (*machine.Machine, Artifact, error) {
			t.Errorf("seed %d: fixture record not restored", seed)
			return nil, Artifact{Res: want}, nil
		})
		if err != nil || a.Res != want {
			t.Fatalf("seed %d: restored %+v, want %+v (err %v)", seed, a.Res, want, err)
		}
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
// must say so even though its close succeeds. The journal is /dev/null,
// which opens and closes cleanly but cannot be fsynced; resuming from it
// reads nothing, so nothing truncates, renames or writes it.
func TestCloseJournalReportsSyncFailure(t *testing.T) {
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no %s: %v", os.DevNull, err)
	}
	syncErr := f.Sync()
	f.Close()
	if syncErr == nil {
		t.Skipf("this platform can fsync %s", os.DevNull)
	}
	e := New(Config{})
	if _, err := e.OpenJournal(os.DevNull, true); err != nil {
		t.Skipf("cannot attach a journal at %s: %v", os.DevNull, err)
	}
	if err := e.CloseJournal(); err == nil {
		t.Fatal("CloseJournal hid the failed sync")
	}
	if e.JournalPath() != "" {
		t.Error("journal still attached after close")
	}
}

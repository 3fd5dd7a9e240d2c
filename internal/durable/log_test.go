package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"clustersim/internal/faultinject"
)

const testMax = 1 << 20

// openLog opens the log at path, failing the test on error.
func openLog(t *testing.T, path string) (*Log, [][]byte, int64) {
	t.Helper()
	l, recs, torn, err := Open(path, "testlog", testMax)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return l, recs, torn
}

// appendAll appends recs, failing the test on any error.
func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, rec := range recs {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatalf("append %q: %v", rec, err)
		}
	}
}

// reopen closes l and reopens its file, returning the replayed records.
func reopen(t *testing.T, l *Log) (*Log, []string) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, recs, _ := openLog(t, l.path)
	return l2, strs(recs)
}

func strs(recs [][]byte) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

// TestLogTornTail: trailing garbage — a crash mid-append — is truncated
// on open; the valid prefix replays and appends continue from the
// repaired boundary.
func TestLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openLog(t, path)
	appendAll(t, l, "one", "two")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("CSF1\x40\x00\x00\x00torn-frame-missing-most-of-its-payload"))
	f.Close()

	l, recs, torn := openLog(t, path)
	if torn == 0 {
		t.Fatal("open did not report the torn tail")
	}
	if got := strs(recs); len(got) != 2 || got[1] != "two" {
		t.Fatalf("valid prefix replayed %q, want the 2 good records", got)
	}
	appendAll(t, l, "three")
	l, got := reopen(t, l)
	defer l.Close()
	if len(got) != 3 || got[2] != "three" {
		t.Fatalf("post-repair append lost: %q", got)
	}
}

// TestLogAppendFaults: under heavy write-path fault injection every
// append either succeeds (after internal retries) or fails cleanly; the
// file never ends up with a mid-file torn frame, so every appended
// record replays.
func TestLogAppendFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openLog(t, path)
	faultinject.Enable(77, 0.3)
	defer faultinject.Disable()
	var ok []string
	for i := 0; i < 60; i++ {
		rec := fmt.Sprintf("rec-%d", i)
		err := l.Append([]byte(rec))
		if err == nil {
			ok = append(ok, rec)
		} else if errors.Is(err, errBroken) {
			t.Fatalf("append %d: log declared broken: %v", i, err)
		}
	}
	faults := faultinject.Snapshot()
	faultinject.Disable()
	if len(ok) == 0 || faults.Truncates == 0 {
		t.Fatalf("%d appends survived, %d short writes injected: the test proves nothing", len(ok), faults.Truncates)
	}

	l, recs, torn := openLog(t, path)
	defer l.Close()
	if torn != 0 {
		t.Fatalf("replay found %d torn bytes; rollback should have repaired every failed append", torn)
	}
	if got := strs(recs); fmt.Sprint(got) != fmt.Sprint(ok) {
		t.Fatalf("replayed %q, want the successful appends %q", got, ok)
	}
}

// TestLogConcurrentAppendFaults: appends arrive concurrently with the
// write path faulting. The lock must serialize write and rollback, or a
// failed append's rollback truncates to a stale size and cuts off a
// record another goroutine had already fsynced. Every append that
// reported success must replay.
func TestLogConcurrentAppendFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openLog(t, path)
	faultinject.Enable(41, 0.3)
	defer faultinject.Disable()
	const writers, perWriter = 8, 25
	var mu sync.Mutex
	ok := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := fmt.Sprintf("rec-%d-%d", w, i)
				if l.Append([]byte(rec)) == nil {
					mu.Lock()
					ok[rec] = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	faultinject.Disable()
	if len(ok) == 0 {
		t.Fatal("no append survived 30% fault injection — suspicious")
	}

	l, got := reopen(t, l)
	defer l.Close()
	if len(got) != len(ok) {
		t.Fatalf("replayed %d records, want the %d successful appends", len(got), len(ok))
	}
	for _, rec := range got {
		if !ok[rec] {
			t.Fatalf("replayed %s, which never reported a successful append", rec)
		}
	}
}

// TestLogCompact: compaction rewrites the log to exactly the given
// records and the handle keeps appending afterwards.
func TestLogCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openLog(t, path)
	for i := 0; i < 10; i++ {
		appendAll(t, l, "old")
	}
	if err := l.Compact([][]byte{[]byte("keep")}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "after")
	l, got := reopen(t, l)
	defer l.Close()
	if fmt.Sprint(got) != "[keep after]" {
		t.Fatalf("after compact+append: %q, want [keep after]", got)
	}
}

// TestLogRemovesStaleCompactionTemps: a crash between creating and
// renaming a compaction temp leaves it behind; opening the log removes
// its own stale temps and nothing else.
func TestLogRemovesStaleCompactionTemps(t *testing.T) {
	dir := t.TempDir()
	stale := ".joblog-123456"
	keep := []string{".joblog2-55", ".joblog-x1", ".joblog-", ".tmp-42", "joblog-7", ".joblog.wal-9"}
	for _, name := range append(keep, stale) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, _, _ := openLog(t, filepath.Join(dir, "joblog"))
	defer l.Close()
	if _, err := os.Stat(filepath.Join(dir, stale)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale compaction temp %s survived open: %v", stale, err)
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("open removed %s, which is not its compaction temp: %v", name, err)
		}
	}
}

// TestLogRejectsOversizedRecord: a record replay could not read back is
// refused rather than written, since replay would stop at its frame.
func TestLogRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _, err := Open(path, "testlog", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("123456789")); err == nil {
		t.Fatal("append of a record over the limit succeeded")
	}
	appendAll(t, l, "12345678")
	l, got := reopen(t, l)
	defer l.Close()
	if fmt.Sprint(got) != "[12345678]" {
		t.Fatalf("replayed %q", got)
	}
}

// TestWriteFileAtomic: the target is replaced whole, world-readable,
// with no temp left behind; a failed write leaves the old bytes.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("half"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("write error came back as %v", err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new" {
		t.Fatalf("target holds %q (%v), want new", got, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("target mode %v (%v), want 0644", fi.Mode().Perm(), err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(names) != 0 {
		t.Errorf("temps left behind: %v", names)
	}
}

// FuzzLogReplay: Open on arbitrary bytes never fails, replays a prefix
// of whole frames and truncates the file to exactly that prefix.
func FuzzLogReplay(f *testing.F) {
	rec := []byte(`{"Kind":"result","Key":"sim|gzip|300|1","Result":{"Insts":300}}`)
	stream := append(EncodeFrame(rec), EncodeFrame(rec)...)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add(stream[:FrameHeaderLen-1])
	flipped := append([]byte{}, stream...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add(append(append([]byte{}, stream...), 0xFF))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, torn, err := Open(path, "testlog", testMax)
		if err != nil {
			t.Fatalf("replay errored on arbitrary bytes: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var prefix []byte
		for _, r := range recs {
			prefix = append(prefix, EncodeFrame(r)...)
		}
		if int64(len(prefix))+torn != int64(len(data)) || !bytes.Equal(prefix, data[:len(prefix)]) {
			t.Fatalf("replayed %d records (%d bytes) + %d torn bytes from %d bytes", len(recs), len(prefix), torn, len(data))
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, prefix) {
			t.Fatalf("file not truncated to the valid prefix (%d bytes, want %d; %v)", len(after), len(prefix), err)
		}
	})
}

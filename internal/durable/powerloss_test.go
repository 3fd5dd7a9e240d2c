package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// memFS models a file system across a power cut. Each file keeps the
// bytes written to it and the bytes as of its last fsync; each directory
// keeps its entries and the entries as of its last fsync. Power loss
// (crash) keeps only what was fsynced: unsynced bytes vanish, and so do
// creates, renames and removes whose directory was never fsynced.
//
// cutAfter simulates the power failing mid-sequence: the first cutAfter
// operations succeed and every later one fails, so nothing more reaches
// the disk. A negative cutAfter never cuts.
type memFS struct {
	names    map[string]*inode // visible entries, by path
	durable  map[string]*inode // entries as of their directory's last fsync
	ops      int
	cutAfter int
	temps    int
}

type inode struct{ data, synced []byte }

var errPowerCut = errors.New("power cut")

func newMemFS(cutAfter int) *memFS {
	return &memFS{names: map[string]*inode{}, durable: map[string]*inode{}, cutAfter: cutAfter}
}

// op counts one operation and fails it once the power is cut.
func (m *memFS) op() error {
	m.ops++
	if m.cutAfter >= 0 && m.ops > m.cutAfter {
		return errPowerCut
	}
	return nil
}

// cut reports whether the power failed during the sequence.
func (m *memFS) cut() bool { return m.cutAfter >= 0 && m.ops > m.cutAfter }

// crash returns the file system as a reboot after power loss finds it.
func (m *memFS) crash() *memFS {
	after := newMemFS(-1)
	fresh := map[*inode]*inode{}
	for name, ino := range m.durable {
		if fresh[ino] == nil {
			fresh[ino] = &inode{data: clone(ino.synced), synced: clone(ino.synced)}
		}
		after.names[name] = fresh[ino]
		after.durable[name] = fresh[ino]
	}
	return after
}

// put creates a file whose bytes and entry are already durable.
func (m *memFS) put(name, data string) {
	ino := &inode{data: []byte(data), synced: []byte(data)}
	m.names[name], m.durable[name] = ino, ino
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

func (m *memFS) ReadFile(name string) ([]byte, error) {
	if err := m.op(); err != nil {
		return nil, err
	}
	ino := m.names[name]
	if ino == nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return clone(ino.data), nil
}

func (m *memFS) OpenFile(name string, flag int, _ fs.FileMode) (file, error) {
	if err := m.op(); err != nil {
		return nil, err
	}
	ino := m.names[name]
	if ino == nil {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		ino = &inode{}
		m.names[name] = ino
	}
	if flag&os.O_TRUNC != 0 {
		ino.data = nil
	}
	return &memFile{m: m, name: name, ino: ino}, nil
}

func (m *memFS) CreateTemp(dir, pattern string) (file, error) {
	m.temps++
	prefix, suffix, _ := strings.Cut(pattern, "*")
	return m.OpenFile(filepath.Join(dir, fmt.Sprint(prefix, m.temps, suffix)), os.O_CREATE, 0)
}

func (m *memFS) Rename(oldpath, newpath string) error {
	if err := m.op(); err != nil {
		return err
	}
	ino := m.names[oldpath]
	if ino == nil {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	m.names[newpath] = ino
	delete(m.names, oldpath)
	return nil
}

func (m *memFS) Remove(name string) error {
	if err := m.op(); err != nil {
		return err
	}
	if m.names[name] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.names, name)
	return nil
}

func (m *memFS) ReadDirNames(dir string) ([]string, error) {
	if err := m.op(); err != nil {
		return nil, err
	}
	var names []string
	for name := range m.names {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) SyncDir(dir string) error {
	if err := m.op(); err != nil {
		return err
	}
	for name := range m.durable {
		if filepath.Dir(name) == dir {
			delete(m.durable, name)
		}
	}
	for name, ino := range m.names {
		if filepath.Dir(name) == dir {
			m.durable[name] = ino
		}
	}
	return nil
}

// memFile writes append-only: the package writes its temps from the
// start and its logs with O_APPEND, so every write lands at the end.
type memFile struct {
	m    *memFS
	name string
	ino  *inode
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Write(p []byte) (int, error) {
	if err := f.m.op(); err != nil {
		return 0, err
	}
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (f *memFile) Chmod(fs.FileMode) error { return f.m.op() }

func (f *memFile) Truncate(size int64) error {
	if err := f.m.op(); err != nil {
		return err
	}
	f.ino.data = f.ino.data[:size]
	return nil
}

func (f *memFile) Sync() error {
	if err := f.m.op(); err != nil {
		return err
	}
	f.ino.synced = clone(f.ino.data)
	return nil
}

func (f *memFile) Close() error { return f.m.op() }

// logScenario opens a log, appends r1–r3, compacts to [r2 r3], appends
// r4 and r5 and closes it, on m. It returns the records whose Append
// returned nil before and after the compaction, and Compact's error.
func logScenario(m *memFS) (before, after []string, compactErr error) {
	l, _, _, err := open(m, "/d/log", "powerloss", testMax)
	if err != nil {
		return nil, nil, errPowerCut
	}
	appendEach := func(acked *[]string, recs ...string) {
		for _, rec := range recs {
			if l.Append([]byte(rec)) == nil {
				*acked = append(*acked, rec)
			}
		}
	}
	appendEach(&before, "r1", "r2", "r3")
	compactErr = l.Compact([][]byte{[]byte("r2"), []byte("r3")})
	appendEach(&after, "r4", "r5")
	l.Close()
	return before, after, compactErr
}

// TestPowerLossLog cuts the power after every operation of an
// open/append/compact/append sequence. After each cut the log must
// reopen, every acknowledged append must replay, and the compaction
// must have happened whole or not at all.
func TestPowerLossLog(t *testing.T) {
	for cutAfter := 0; ; cutAfter++ {
		m := newMemFS(cutAfter)
		before, after, compactErr := logScenario(m)
		if !m.cut() {
			if cutAfter < 20 {
				t.Fatalf("the sequence took only %d operations", cutAfter)
			}
			return // every operation has had its cut
		}
		l, recs, _, err := open(m.crash(), "/d/log", "powerloss", testMax)
		if err != nil {
			t.Fatalf("cut after %d ops: reopen: %v", cutAfter, err)
		}
		got := fmt.Sprint(strs(recs))
		compacted := fmt.Sprint(append([]string{"r2", "r3"}, after...))
		switch {
		case got == compacted:
		case compactErr == nil:
			t.Fatalf("cut after %d ops: replayed %s, want the compacted log %s", cutAfter, got, compacted)
		case got != fmt.Sprint(before) || len(after) > 0:
			t.Fatalf("cut after %d ops: replayed %s; acknowledged %v, then %v after a failed compaction",
				cutAfter, got, before, after)
		}
		l.Close()
	}
}

// TestPowerLossWriteFileAtomic cuts the power after every operation of
// a WriteFileAtomic: the target must hold the old bytes or the new ones,
// and the new ones if the call returned nil.
func TestPowerLossWriteFileAtomic(t *testing.T) {
	for cutAfter := 0; ; cutAfter++ {
		m := newMemFS(cutAfter)
		m.put("/d/target", "old contents")
		_, err := writeAtomic(m, "/d/target", ".tmp-*", func(w io.Writer) error {
			_, err := io.WriteString(w, "new contents")
			return err
		})
		if !m.cut() {
			if err != nil || cutAfter < 5 {
				t.Fatalf("uncut write: %v after %d operations", err, cutAfter)
			}
			return
		}
		data, rerr := m.crash().ReadFile("/d/target")
		got := string(data)
		if rerr != nil || (got != "old contents" && got != "new contents") {
			t.Fatalf("cut after %d ops: target holds %q (%v)", cutAfter, got, rerr)
		}
		if err == nil && got != "new contents" {
			t.Fatalf("cut after %d ops: WriteFileAtomic returned nil but the target reverted", cutAfter)
		}
	}
}

// TestPowerLossModelCatchesMissingDirSync checks the model itself: a
// rename whose directory is never fsynced does not survive the cut.
func TestPowerLossModelCatchesMissingDirSync(t *testing.T) {
	m := newMemFS(-1)
	m.put("/d/target", "old")
	f, _ := m.CreateTemp("/d", ".tmp-*")
	f.Write([]byte("new"))
	f.Sync()
	m.Rename(f.Name(), "/d/target")
	if data, _ := m.crash().ReadFile("/d/target"); string(data) != "old" {
		t.Fatalf("an unsynced rename survived power loss: %q", data)
	}
}

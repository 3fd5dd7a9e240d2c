package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"clustersim/internal/faultinject"
)

// Log is an append-only file of CSF1 frames, one record per frame. An
// Append returns once its record is fsynced; a failed Append leaves the
// file ending on a frame boundary, so the only torn tail a replay meets
// is a crash mid-append, which Open truncates away. One mutex serializes
// every change to the file: an unserialized rollback would truncate to a
// stale size and cut off a record another goroutine had fsynced.
type Log struct {
	fs   fileSystem
	path string
	site string
	max  int

	mu     sync.Mutex
	f      file
	size   int64 // bytes of valid, fsynced frames
	broken bool
}

// errBroken means a failed write could not be undone, so further appends
// could land after a torn frame or in an unlinked file.
var errBroken = errors.New("durable: log broken (a failed write could not be undone)")

// Open opens the log at path, creating it if missing, and returns the
// payloads of its valid prefix plus the bytes of the torn tail it
// truncated. It removes this log's stale compaction temps and fsyncs the
// directory, so the log's own entry is durable before any append.
//
// site prefixes the fault-injection sites: site.read (the replay read),
// site.append (an append refused before any byte is written) and
// site.append.write (a refused or short write). maxRecord bounds one
// record's payload.
func Open(path, site string, maxRecord int) (l *Log, records [][]byte, torn int64, err error) {
	return open(osFS{}, path, site, maxRecord)
}

func open(fsys fileSystem, path, site string, maxRecord int) (*Log, [][]byte, int64, error) {
	data, err := readLog(fsys, path, site)
	if err != nil {
		return nil, nil, 0, err
	}
	var records [][]byte
	rest := data
	for len(rest) > 0 {
		payload, next, err := nextFrame(rest, maxRecord)
		if err != nil {
			break // torn tail: keep the valid prefix
		}
		records = append(records, payload)
		rest = next
	}
	valid, torn := int64(len(data)-len(rest)), int64(len(rest))

	l := &Log{fs: fsys, path: path, site: site, max: maxRecord, size: valid}
	l.removeStaleTemps()
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, torn, err
	}
	if torn > 0 {
		if err = f.Truncate(valid); err == nil {
			err = f.Sync()
		}
	}
	if err == nil {
		err = fsys.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, nil, torn, err
	}
	l.f = f
	return l, records, torn, nil
}

// readLog reads the whole log; a missing file is an empty log. Read
// errors are retried, never taken for an empty log that loses records.
func readLog(fsys fileSystem, path, site string) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		data, err := fsys.ReadFile(path)
		if err == nil {
			err = faultinject.Err(site + ".read")
		}
		if err == nil {
			return data, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		if attempt >= 6 {
			return nil, err
		}
		time.Sleep(time.Duration(1<<attempt) * time.Millisecond)
	}
}

// tempPrefix starts this log's compaction temps, before CreateTemp's digits.
func (l *Log) tempPrefix() string { return "." + filepath.Base(l.path) + "-" }

// removeStaleTemps deletes this log's compaction temps a crash left
// behind, and only those: the suffix must be all digits. Failures are
// ignored, since a stale temp is litter, not damage.
func (l *Log) removeStaleTemps() {
	dir := filepath.Dir(l.path)
	names, _ := l.fs.ReadDirNames(dir)
	for _, name := range names {
		if digits, ok := strings.CutPrefix(name, l.tempPrefix()); ok && digits != "" &&
			strings.Trim(digits, "0123456789") == "" {
			l.fs.Remove(filepath.Join(dir, name))
		}
	}
}

// Append frames, writes and fsyncs one record, retrying with backoff.
// Each failed attempt is rolled back to the last good frame; if a
// rollback fails the log is broken and refuses appends.
func (l *Log) Append(payload []byte) error {
	if len(payload) > l.max {
		// Replay would stop at such a frame and drop every record after it.
		return fmt.Errorf("durable: %d-byte record exceeds the %d-byte limit of %s", len(payload), l.max, l.path)
	}
	framed := EncodeFrame(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	for attempt := 1; ; attempt++ {
		err := l.writeOnce(framed)
		if err == nil || l.broken || attempt == 4 {
			return err
		}
		time.Sleep(time.Duration(1<<attempt) * time.Millisecond)
	}
}

// usable reports why the log cannot take a write (l.mu held).
func (l *Log) usable() error {
	if l.broken {
		return errBroken
	}
	if l.f == nil {
		return fmt.Errorf("durable: log %s: %w", l.path, os.ErrClosed)
	}
	return nil
}

// writeOnce attempts one framed append (l.mu held). A refused write, a
// short write or a failed fsync rolls the file back to the last good
// frame boundary.
func (l *Log) writeOnce(framed []byte) error {
	if err := faultinject.Err(l.site + ".append"); err != nil {
		return err // refused before any byte landed
	}
	data, err := faultinject.WriteFault(l.site+".append.write", framed)
	if err == nil {
		if _, err = l.f.Write(data); err == nil && len(data) < len(framed) {
			err = io.ErrShortWrite
		}
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err == nil {
		l.size += int64(len(framed))
		return nil
	}
	// With O_APPEND the next write lands at the truncated end.
	if terr := l.f.Truncate(l.size); terr != nil {
		l.broken = true
		return fmt.Errorf("%w: %v (after %v)", errBroken, terr, err)
	}
	return err
}

// Compact atomically replaces the log's contents with records (see
// writeAtomic); appends continue on the new file. A failure before the
// rename leaves the log unchanged; one after it breaks the log.
func (l *Log) Compact(records [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	var size int64
	renamed, err := writeAtomic(l.fs, l.path, l.tempPrefix()+"*", func(w io.Writer) error {
		for _, rec := range records {
			size += int64(FrameHeaderLen + len(rec))
			if _, err := w.Write(EncodeFrame(rec)); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		var f file
		if f, err = l.fs.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
			l.f.Close() // the old file is unlinked and holds nothing unsynced
			l.f, l.size = f, size
			return nil
		}
	}
	// After the rename the handle points at the unlinked old file, or
	// the new name may not survive a power cut: appends would be lost.
	l.broken = renamed
	return err
}

// Close fsyncs and closes the log, reporting a failed fsync even when the
// close succeeds.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("durable: log %s: %w", l.path, os.ErrClosed)
	}
	err := errors.Join(l.f.Sync(), l.f.Close())
	l.f = nil
	return err
}

package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"clustersim/internal/faultinject"
	"clustersim/internal/machine"
)

// The run journal is the engine's checkpoint/resume layer: an
// append-only file of CRC-framed JSON records, one per completed
// derived value (simulation result, critical-path summary, schedule
// summary), fsync'd after every append. Unlike the disk cache — an
// accelerator that may be absent, degraded or quarantined — the journal
// is a write-ahead log of this sweep's completed keys: replaying it
// into the memory cache lets `clustersim -resume` recompute only the
// keys the interrupted run never finished.
//
// Replay follows write-ahead-log semantics: records are restored in
// order up to the first invalid frame (a torn tail from a crash or an
// injected short write), and the file is truncated to that prefix so
// subsequent appends continue a well-formed stream. A lost suffix only
// costs recomputation.
//
// Traces are deliberately not journaled: they are large, cheap to
// regenerate relative to simulation, and already persisted by the disk
// cache when one is configured.

// Journal record kinds.
const (
	recResult   = "result"
	recAnalysis = "analysis"
	recSched    = "sched"
)

// journalRecord is one completed derived value. Key is the canonical
// cache-key string (which folds in every schema version), so a stale
// journal from an older binary restores nothing it shouldn't.
type journalRecord struct {
	Kind   string
	Key    string
	Result *machine.Result `json:",omitempty"`
	Crit   *CritSummary    `json:",omitempty"`
	Sched  *SchedSummary   `json:",omitempty"`
}

type journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// OpenJournal attaches a run journal at path. With resume set, existing
// records are replayed into the memory cache first (counted in
// Summary.ResumeRestored; cache hits on restored entries count in
// Summary.ResumeHits) and appends continue the file; without resume any
// existing journal is truncated. Call before submitting work; the
// journal is not swappable mid-run. Returns the number of restored
// records.
func (e *Engine) OpenJournal(path string, resume bool) (int, error) {
	if e.journal != nil {
		return 0, Fatal(fmt.Errorf("engine: journal already open at %s", e.journal.path))
	}
	restored := 0
	if resume {
		n, err := e.replayJournal(path)
		if err != nil {
			return 0, err
		}
		restored = n
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return 0, Fatal(fmt.Errorf("engine: open journal: %w", err))
	}
	e.journal = &journal{path: path, f: f}
	return restored, nil
}

// CloseJournal syncs and closes the journal (a no-op when none is open).
// A failed sync is reported even when the close succeeds: the records
// it covered may not be durable.
func (e *Engine) CloseJournal() error {
	j := e.journal
	if j == nil {
		return nil
	}
	e.journal = nil
	j.mu.Lock()
	defer j.mu.Unlock()
	syncErr := j.f.Sync()
	return errors.Join(syncErr, j.f.Close())
}

// JournalPath returns the open journal's path ("" when none).
func (e *Engine) JournalPath() string {
	if e.journal == nil {
		return ""
	}
	return e.journal.path
}

// replayJournal restores the journal's valid prefix into the memory
// cache and truncates away any torn tail. A missing file is an empty
// journal, not an error.
func (e *Engine) replayJournal(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, Transient(fmt.Errorf("engine: read journal: %w", err))
	}
	restored := 0
	rest := data
	for len(rest) > 0 {
		payload, next, err := nextFrame(rest, maxJSONPayload)
		if err != nil {
			break // torn tail: keep the valid prefix
		}
		var rec journalRecord
		if json.Unmarshal(payload, &rec) == nil && e.restoreRecord(rec) {
			restored++
		}
		rest = next
	}
	if consumed := len(data) - len(rest); consumed < len(data) {
		if err := os.Truncate(path, int64(consumed)); err != nil {
			return restored, Transient(fmt.Errorf("engine: truncate torn journal: %w", err))
		}
	}
	e.cResumeRestored.Add(int64(restored))
	return restored, nil
}

// restoreRecord inserts one replayed record into the memory cache,
// marked so later hits count as resume hits. Unknown kinds and
// malformed records restore nothing (forward compatibility).
func (e *Engine) restoreRecord(rec journalRecord) bool {
	if rec.Key == "" {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch rec.Kind {
	case recResult:
		if rec.Result == nil {
			return false
		}
		e.mem.putSim(rec.Key, &Artifact{Res: *rec.Result})
	case recAnalysis:
		if rec.Crit == nil {
			return false
		}
		e.mem.putAnalysis(rec.Key, rec.Crit)
	case recSched:
		if rec.Sched == nil {
			return false
		}
		e.mem.putSched(rec.Key, rec.Sched)
	default:
		return false
	}
	if ent, ok := e.mem.entries[rec.Key]; ok {
		ent.journal = true
	}
	return true
}

// append frames, writes and fsyncs one record. Failures are counted,
// never propagated: losing a journal record only means a resume run
// recomputes that key.
func (j *journal) append(e *Engine, rec journalRecord) {
	payload, err := json.Marshal(rec)
	if err != nil {
		e.cDiskErr.Inc()
		return
	}
	framed := encodeFrame(payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := faultinject.Err("journal.append"); err != nil {
		e.cDiskErr.Inc()
		return
	}
	if _, err := j.f.Write(framed); err != nil {
		e.cDiskErr.Inc()
		return
	}
	if err := j.f.Sync(); err != nil {
		e.cDiskErr.Inc()
	}
}

// journalResult records one completed simulation result.
func (e *Engine) journalResult(canon string, res machine.Result) {
	if j := e.journal; j != nil {
		j.append(e, journalRecord{Kind: recResult, Key: canon, Result: &res})
	}
}

// journalAnalysis records one completed critical-path summary.
func (e *Engine) journalAnalysis(canon string, cs *CritSummary) {
	if j := e.journal; j != nil {
		j.append(e, journalRecord{Kind: recAnalysis, Key: canon, Crit: cs})
	}
}

// journalSched records one completed schedule summary.
func (e *Engine) journalSched(canon string, ss *SchedSummary) {
	if j := e.journal; j != nil {
		j.append(e, journalRecord{Kind: recSched, Key: canon, Sched: ss})
	}
}

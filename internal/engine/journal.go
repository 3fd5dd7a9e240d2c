package engine

import (
	"encoding/json"
	"fmt"

	"clustersim/internal/durable"
	"clustersim/internal/machine"
)

// The run journal is the engine's checkpoint/resume layer: a
// durable.Log (fault sites journal.read, journal.append and
// journal.append.write) of JSON records, one per completed derived value
// (simulation result, critical-path summary, schedule summary). Unlike
// the disk cache — an accelerator that may be absent, degraded or
// quarantined — the journal is a write-ahead log of this sweep's
// completed keys: replaying its valid prefix into the memory cache lets
// `clustersim -resume` recompute only the keys the interrupted run never
// finished. A lost record only costs recomputation.
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

// OpenJournal attaches a run journal at path. With resume set, existing
// records are replayed into the memory cache first (counted in
// Summary.ResumeRestored; cache hits on restored entries count in
// Summary.ResumeHits) and appends continue the file; without resume any
// existing journal is emptied. Call before submitting work; the
// journal is not swappable mid-run. Returns the number of restored
// records.
func (e *Engine) OpenJournal(path string, resume bool) (int, error) {
	if e.journal != nil {
		return 0, Fatal(fmt.Errorf("engine: journal already open at %s", e.journal.Path()))
	}
	l, records, _, err := durable.Open(path, "journal", maxJSONPayload)
	if err != nil {
		return 0, Fatal(fmt.Errorf("engine: open journal: %w", err))
	}
	restored := 0
	if resume {
		for _, payload := range records {
			var rec journalRecord
			if json.Unmarshal(payload, &rec) == nil && e.restoreRecord(rec) {
				restored++
			}
		}
		e.cResumeRestored.Add(int64(restored))
	} else if err := l.Compact(nil); err != nil {
		l.Close()
		return 0, Fatal(fmt.Errorf("engine: empty journal: %w", err))
	}
	e.journal = l
	return restored, nil
}

// CloseJournal syncs and closes the journal (a no-op when none is open),
// reporting a failed sync even when the close succeeds.
func (e *Engine) CloseJournal() error {
	l := e.journal
	if l == nil {
		return nil
	}
	e.journal = nil
	return l.Close()
}

// JournalPath returns the open journal's path ("" when none).
func (e *Engine) JournalPath() string {
	if e.journal == nil {
		return ""
	}
	return e.journal.Path()
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

// journalAppend writes one record to the journal, if one is open.
// Failures are counted, never propagated: losing a journal record only
// means a resume run recomputes that key.
func (e *Engine) journalAppend(rec journalRecord) {
	l := e.journal
	if l == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		err = l.Append(payload)
	}
	if err != nil {
		e.cDiskErr.Inc()
	}
}

// journalResult records one completed simulation result.
func (e *Engine) journalResult(canon string, res machine.Result) {
	e.journalAppend(journalRecord{Kind: recResult, Key: canon, Result: &res})
}

// journalAnalysis records one completed critical-path summary.
func (e *Engine) journalAnalysis(canon string, cs *CritSummary) {
	e.journalAppend(journalRecord{Kind: recAnalysis, Key: canon, Crit: cs})
}

// journalSched records one completed schedule summary.
func (e *Engine) journalSched(canon string, ss *SchedSummary) {
	e.journalAppend(journalRecord{Kind: recSched, Key: canon, Sched: ss})
}

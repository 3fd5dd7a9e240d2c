package engine

import (
	"errors"
	"fmt"
)

// The engine's structured error taxonomy. Every failure that crosses a
// recovery boundary is wrapped with exactly one class sentinel so
// callers can route on errors.Is instead of string matching:
//
//   - ErrTransient: the operation may succeed if retried (injected or
//     real I/O hiccups, worker panics injected by chaos testing,
//     exhausted per-job deadlines). The engine retries or degrades and
//     never lets a transient failure decide a sweep's results.
//   - ErrCorrupt: persisted bytes failed validation (bad frame magic,
//     length, CRC, key mismatch, undecodable payload). Corrupt cache
//     entries are quarantined and recomputed — corruption is a miss,
//     never an error.
//   - ErrFatal: the run cannot continue (cancellation, deadline expiry
//     of the whole run, genuine job errors). Fatal errors propagate to
//     the caller with partial results already cached.
var (
	ErrTransient = errors.New("engine: transient failure")
	ErrCorrupt   = errors.New("engine: corrupt data")
	ErrFatal     = errors.New("engine: fatal")
)

// Transient wraps err as retriable; nil stays nil.
func Transient(err error) error { return classify(ErrTransient, err) }

// Corrupt wraps err as failed-validation; nil stays nil.
func Corrupt(err error) error { return classify(ErrCorrupt, err) }

// Fatal wraps err as unrecoverable; nil stays nil.
func Fatal(err error) error { return classify(ErrFatal, err) }

// classify attaches class to err unless it already carries one (the
// innermost classification wins — a corrupt frame surfaced through a
// retry loop stays corrupt).
func classify(class, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrTransient) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrFatal) {
		return err
	}
	return &classedError{class: class, err: err}
}

// classedError carries one taxonomy sentinel alongside the underlying
// error; errors.Is matches both.
type classedError struct {
	class error
	err   error
}

func (e *classedError) Error() string {
	return fmt.Sprintf("%v: %v", e.class, e.err)
}

func (e *classedError) Unwrap() []error { return []error{e.class, e.err} }

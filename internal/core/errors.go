package core

import (
	"errors"
	"fmt"
)

// Typed runtime errors. Callers branch on Kind — either through
// errors.As on *QueryError, or directly with errors.Is against a kind
// constant: every ErrorKind is itself an error value, and QueryError
// implements Is so `errors.Is(err, ErrKindCheckpoint)` matches any
// QueryError of that kind anywhere in a wrap chain.

// ErrorKind classifies a QueryError. Each kind constant doubles as the
// errors.Is sentinel for that kind.
type ErrorKind string

const (
	// ErrKindInvalidOptions reports an Options value rejected at engine
	// construction.
	ErrKindInvalidOptions ErrorKind = "invalid-options"
	// ErrKindWorkerPanic reports a worker-task panic that survived the
	// serial retry ladder.
	ErrKindWorkerPanic ErrorKind = "worker-panic"
	// ErrKindPoolStopped reports a submission to a stopped worker pool.
	ErrKindPoolStopped ErrorKind = "pool-stopped"
	// ErrKindInterrupted reports a deadline or cancellation; the
	// accompanying snapshot is the bounded-time approximate answer.
	ErrKindInterrupted ErrorKind = "interrupted"
	// ErrKindCheckpoint reports a malformed or mismatched checkpoint.
	ErrKindCheckpoint ErrorKind = "checkpoint"
)

// Error makes a kind usable as an errors.Is target.
func (k ErrorKind) Error() string { return "core: " + string(k) }

// QueryError is the runtime's typed error. Batch and Worker are -1 when
// not applicable.
type QueryError struct {
	Kind   ErrorKind
	Batch  int
	Worker int
	Err    error
	Note   string
}

func (e *QueryError) Error() string {
	msg := fmt.Sprintf("core: %s", e.Kind)
	if e.Batch >= 0 {
		msg += fmt.Sprintf(" (batch %d", e.Batch)
		if e.Worker >= 0 {
			msg += fmt.Sprintf(", worker %d", e.Worker)
		}
		msg += ")"
	}
	if e.Note != "" {
		msg += ": " + e.Note
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *QueryError) Unwrap() error { return e.Err }

// Is matches the error's kind sentinel, so
// errors.Is(err, ErrKindInterrupted) works on wrapped QueryErrors.
func (e *QueryError) Is(target error) bool {
	k, ok := target.(ErrorKind)
	return ok && k == e.Kind
}

// queryErr builds a QueryError without positional context.
func queryErr(kind ErrorKind, note string) *QueryError {
	return &QueryError{Kind: kind, Batch: -1, Worker: -1, Note: note}
}

// ErrPoolStopped is returned by workerPool.submit after stop; callers
// degrade to the serial path.
var ErrPoolStopped = queryErr(ErrKindPoolStopped, "worker pool stopped")

// IsInterrupted reports whether err is a deadline/cancel interruption
// (whose snapshot is a valid bounded-time answer, not a failure).
func IsInterrupted(err error) bool {
	var qe *QueryError
	return errors.As(err, &qe) && qe.Kind == ErrKindInterrupted
}

package core

import (
	"errors"
	"fmt"
	"testing"
)

// Every ErrorKind doubles as an errors.Is sentinel; QueryError must
// match its own kind (and only its own kind) anywhere in a wrap chain,
// and errors.As must recover the typed error through wrapping.
func TestErrorKindSentinels(t *testing.T) {
	kinds := []ErrorKind{
		ErrKindInvalidOptions,
		ErrKindWorkerPanic,
		ErrKindPoolStopped,
		ErrKindInterrupted,
		ErrKindCheckpoint,
	}
	for _, k := range kinds {
		qe := &QueryError{Kind: k, Batch: 3, Worker: 1, Note: "probe"}
		if !errors.Is(qe, k) {
			t.Errorf("errors.Is(%v, %q) = false", qe, k)
		}
		wrapped := fmt.Errorf("outer: %w", qe)
		if !errors.Is(wrapped, k) {
			t.Errorf("errors.Is through wrap failed for kind %q", k)
		}
		var got *QueryError
		if !errors.As(wrapped, &got) || got.Kind != k {
			t.Errorf("errors.As through wrap failed for kind %q", k)
		}
		for _, other := range kinds {
			if other != k && errors.Is(qe, other) {
				t.Errorf("kind %q wrongly matches sentinel %q", k, other)
			}
		}
	}
}

// TestErrorKindUnwrapChain checks that a QueryError carrying a cause
// keeps both matchable: the kind sentinel via Is, the cause via the
// standard Unwrap chain.
func TestErrorKindUnwrapChain(t *testing.T) {
	cause := errors.New("worker 2: contained panic")
	qe := &QueryError{Kind: ErrKindWorkerPanic, Batch: 1, Worker: 2, Err: cause}
	if !errors.Is(qe, ErrKindWorkerPanic) {
		t.Fatal("kind sentinel lost when Err is set")
	}
	if !errors.Is(qe, cause) {
		t.Fatal("cause not reachable through Unwrap")
	}
	if errors.Is(qe, ErrKindCheckpoint) {
		t.Fatal("wrong kind matched")
	}
}

// TestErrPoolStoppedSentinel pins the exported variable's kind.
func TestErrPoolStoppedSentinel(t *testing.T) {
	if !errors.Is(ErrPoolStopped, ErrKindPoolStopped) {
		t.Fatal("ErrPoolStopped must match its kind sentinel")
	}
}

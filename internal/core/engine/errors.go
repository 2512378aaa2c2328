package engine

import "errors"

// Error classification for the executor's retry policy (the paper's
// §4.2 "coping with failures" duty). An error is either Fatal or
// retried: a platform — or any layer between the executor and a
// platform — wraps a deterministic failure in Fatal to tell the executor
// that re-running the atom, on this or any other platform, would fail
// identically (a UDF bug, a plan inconsistency). The executor then fails
// the run immediately, without retries and without cross-platform
// failover. Every other error is environmental (an injected fault, a
// lost worker, a timeout) and is retried.
//
// The wrapper is invisible to errors.Is/errors.As chains: it implements
// Unwrap, so callers keep matching the underlying cause.

// fatalError marks an error as non-retryable.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// Fatal marks err as non-retryable: the executor fails the run without
// retrying or failing over. Fatal(nil) returns nil.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return &fatalError{err: err}
}

// IsFatal reports whether err (or anything it wraps) was marked Fatal.
func IsFatal(err error) bool {
	var f *fatalError
	return errors.As(err, &f)
}

package runner

import (
	"context"
	"errors"

	"repro/internal/core"
)

// Executor runs one simulation point and returns its result. *Engine is the
// in-process executor; internal/remote implements the same interface over
// HTTP so a coordinator can run points on a fleet of sweepd workers.
//
// Execute must be safe for concurrent use. A failure of the execution
// channel itself — as opposed to the point being broken — should be wrapped
// with Transient so dispatchers know the point may succeed elsewhere.
type Executor interface {
	Execute(ctx context.Context, j Job) (*core.Result, error)
}

var _ Executor = (*Engine)(nil)

// transientError marks an executor failure as retryable: the execution
// channel failed (worker died, connection dropped), not the point itself.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// Transient wraps an executor error to mark it retryable on another
// executor. nil stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return transientError{err}
}

// IsTransient reports whether an executor error is marked retryable: the
// point may well succeed if dispatched to a different (or recovered)
// executor. Simulation failures and cancellations are not transient.
func IsTransient(err error) bool {
	var t transientError
	return errors.As(err, &t)
}

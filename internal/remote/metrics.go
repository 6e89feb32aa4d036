package remote

import (
	"context"
	"errors"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/taskrt"
)

// Metrics instruments the client half of the wire protocol: every Execute
// call an Executor makes against a worker. One Metrics value is shared by all
// executors of a fleet so the per-worker label tells them apart.
type Metrics struct {
	// Dispatches counts Execute calls by worker URL.
	Dispatches *obs.CounterVec
	// Errors counts failed Execute calls by worker URL and class
	// ("transient", "cancelled", "permanent").
	Errors *obs.CounterVec
	// DispatchSeconds times Execute round-trips, successful or not.
	DispatchSeconds *obs.Histogram
}

// NewMetrics registers the remote-dispatch metric family on the registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Dispatches:      reg.CounterVec("remote_dispatches_total", "Jobs dispatched to remote workers, by worker URL.", "worker"),
		Errors:          reg.CounterVec("remote_dispatch_errors_total", "Failed remote dispatches by worker URL and class (transient, cancelled, permanent).", "worker", "class"),
		DispatchSeconds: reg.Histogram("remote_dispatch_seconds", "Wall-clock remote dispatch round-trip latency.", obs.LatencyBuckets),
	}
}

// dispatchClass buckets an Execute error for the Errors counter, mirroring
// the runner's classification: cancellation is the dispatcher's own doing,
// transient errors are channel failures worth retrying elsewhere, everything
// else condemns the point.
func dispatchClass(err error) string {
	switch {
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, taskrt.ErrCancelled):
		return "cancelled"
	case runner.IsTransient(err):
		return "transient"
	default:
		return "permanent"
	}
}

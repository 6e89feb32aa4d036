package remote

import (
	"repro/internal/obs"
)

// Metrics instruments the client half of the wire protocol: every Execute
// call an Executor makes against a worker. One Metrics value is shared by all
// executors of a fleet so the per-worker label tells them apart.
type Metrics struct {
	// Dispatches counts Execute calls by worker URL.
	Dispatches *obs.CounterVec
	// Errors counts failed Execute calls by worker URL and class
	// (runner.ErrorClass: "transient", "cancelled", "permanent").
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

package runner

import (
	"repro/internal/obs"
)

// StoreMetrics instruments the content-addressed result store. All fields
// are optional (nil instruments drop updates); NewStoreMetrics registers the
// full set. A Store with a nil Metrics field skips instrumentation entirely.
type StoreMetrics struct {
	// Hits counts cache hits by source tier: "mem" (resident result),
	// "disk" (persisted result loaded), "peer" (fetched from another fleet
	// node's store), "inflight" (waited out another caller's computation of
	// the same key).
	Hits *obs.CounterVec
	// Misses counts keys that had to be computed.
	Misses *obs.Counter
	// Quarantines counts unparsable result files moved aside as .corrupt.
	Quarantines *obs.Counter
	// PersistFailures counts results that computed (or arrived from a peer)
	// but failed to persist.
	PersistFailures *obs.Counter
	// MemEvictions counts results dropped from the bounded memory tier;
	// DiskEvictions counts result files the disk-budget GC deleted.
	MemEvictions  *obs.Counter
	DiskEvictions *obs.Counter
	// HitSeconds and MissSeconds time Store.Do by outcome: a hit resolves
	// from a cache tier (or an in-flight computation), a miss runs the
	// executor. HitSeconds also times Store.Resident's hits.
	HitSeconds  *obs.Histogram
	MissSeconds *obs.Histogram
}

// NewStoreMetrics registers the store metric family on the registry.
func NewStoreMetrics(reg *obs.Registry) *StoreMetrics {
	return &StoreMetrics{
		Hits:            reg.CounterVec("store_hits_total", "Result-store cache hits by source tier (mem, disk, peer, inflight).", "source"),
		Misses:          reg.Counter("store_misses_total", "Result-store lookups that computed the point."),
		Quarantines:     reg.Counter("store_quarantines_total", "Corrupt result files quarantined as .corrupt."),
		PersistFailures: reg.Counter("store_persist_failures_total", "Computed or peer-fetched results that failed to persist."),
		MemEvictions:    reg.Counter("store_mem_evictions_total", "Results evicted from the bounded memory tier (LRU)."),
		DiskEvictions:   reg.Counter("store_disk_evictions_total", "Result files deleted by the disk-budget GC (LRU by last access)."),
		HitSeconds:      reg.Histogram("store_hit_seconds", "Store.Do and Store.Resident latency when the result came from a cache tier.", obs.LatencyBuckets),
		MissSeconds:     reg.Histogram("store_miss_seconds", "Store.Do latency when the point was computed.", obs.LatencyBuckets),
	}
}

// RegisterStoreGauges registers scrape-time gauges reading the store's tier
// occupancy (resident and persisted bytes), alongside the counters a
// StoreMetrics provides.
func RegisterStoreGauges(reg *obs.Registry, s *Store) {
	reg.GaugeFunc("store_mem_bytes", "Bytes of results resident in the store's memory tier.", func() float64 {
		return float64(s.MemBytesUsed())
	})
	reg.GaugeFunc("store_disk_bytes", "Bytes of results the store's disk-tier index accounts for.", func() float64 {
		return float64(s.DiskBytesUsed())
	})
}

// EngineMetrics instruments the simulations an Engine executes. A nil
// Metrics field on the engine skips instrumentation.
type EngineMetrics struct {
	// Execs counts jobs that actually executed (cache hits are not execs).
	Execs *obs.Counter
	// ExecSeconds times executions, successful or not.
	ExecSeconds *obs.Histogram
	// ExecErrors counts failed executions by class: "transient" (transport;
	// retryable elsewhere), "cancelled", or "permanent" (the point itself).
	ExecErrors *obs.CounterVec
}

// NewEngineMetrics registers the runner metric family on the registry.
func NewEngineMetrics(reg *obs.Registry) *EngineMetrics {
	return &EngineMetrics{
		Execs:       reg.Counter("runner_execs_total", "Jobs executed (cache hits excluded)."),
		ExecSeconds: reg.Histogram("runner_exec_seconds", "Wall-clock job execution latency.", obs.LatencyBuckets),
		ExecErrors:  reg.CounterVec("runner_exec_errors_total", "Failed job executions by class (transient, cancelled, permanent).", "class"),
	}
}

// ErrorClass buckets an execution error for the error counters of an
// executor (EngineMetrics.ExecErrors, the remote dispatch errors):
// "cancelled" when the caller's own cancellation stopped it, "transient"
// when the execution channel failed and the point is worth retrying
// elsewhere, and "permanent" when the point itself is broken.
func ErrorClass(err error) string {
	switch {
	case isCancellation(err):
		return "cancelled"
	case IsTransient(err):
		return "transient"
	default:
		return "permanent"
	}
}

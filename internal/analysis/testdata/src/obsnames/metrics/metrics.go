// Package metrics is an obsnames fixture exercising every naming rule
// against the real repro/internal/obs registry API.
package metrics

import "repro/internal/obs"

// Register hits one rule per call site.
func Register(r *obs.Registry, dynamic string) {
	r.Counter("fixture_good_things_total", "well-formed counter")
	r.Counter("fixture_bad_things", "missing suffix")                // want `counter "fixture_bad_things" must end in _total`
	r.Gauge("fixture_depth_total", "gauge wearing a counter suffix") // want `gauge "fixture_depth_total" must not end in _total`
	r.Histogram("fixture_op_latency", "latency", obs.LatencyBuckets) // want `uses obs\.LatencyBuckets \(wall-clock seconds\) and must end in _seconds`
	r.Histogram("fixture_op_work", "cycles", obs.CycleBuckets)       // want `uses obs\.CycleBuckets \(simulated cycles\) and must end in _cycles`
	r.Histogram("fixture_free_histogram", "custom buckets", []float64{1, 2})
	r.Counter("Fixture-Caps_total", "bad charset")                // want `must match \[a-z\]\[a-z0-9_\]\* without doubled underscores`
	r.Counter("fixture__doubled_total", "doubled underscore")     // want `must match \[a-z\]\[a-z0-9_\]\* without doubled underscores`
	r.Counter(dynamic, "name not knowable at compile time")       // want `metric name must be a compile-time string constant`
	r.Counter("fixture_good_things_total", "second registration") // want `metric "fixture_good_things_total" is already registered at`
	r.CounterVec("fixture_dup_total", "first", "tenant")
	r.CounterVec("fixture_dup_total", "second", "tenant") //simlint:allow obsnames — fixture: a reasoned suppression is honored
}

// RegisterBadAllow shows a reasonless allow being rejected and ignored.
func RegisterBadAllow(r *obs.Registry) {
	// want+1 `simlint:allow needs a non-empty reason`
	//simlint:allow obsnames
	r.Gauge("fixture_queue_total", "still flagged") // want `gauge "fixture_queue_total" must not end in _total`
}

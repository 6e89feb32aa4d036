package service

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// occupancyBuckets covers DMU structure occupancies (entries, not cycles):
// exponential from 1 to 32768 entries.
var occupancyBuckets = obs.ExpBuckets(1, 2, 16)

// serverMetrics is the service-level instrument set. Every instrument is
// registered by newServerMetrics on the server's registry; the struct only
// exists so handler code reaches instruments by field instead of by name.
type serverMetrics struct {
	sweepsSubmitted *obs.Counter
	sweepsFinished  *obs.CounterVec // state: done | cancelled
	sweepsEvicted   *obs.Counter
	points          *obs.CounterVec // outcome: ok | failed | cancelled
	firstRowSeconds *obs.Histogram
	httpRequests    *obs.CounterVec // code

	// POST /execute requests this node served as a fleet worker.
	executeRequests *obs.CounterVec // outcome: ok | bad_request | failed | abandoned
	executeSeconds  *obs.Histogram

	workerDispatched *obs.CounterVec // worker
	workerRequeued   *obs.CounterVec // worker
	workerFailed     *obs.CounterVec // worker
	workerHealth     *obs.CounterVec // worker, to: dead | healthy

	taskLatency  *obs.HistogramVec // quantile: p50 | p90 | p99 (cycles)
	dmuOccupancy *obs.HistogramVec // kind: tasks | deps (entries)

	searchRungs   *obs.Counter
	searchSaved   *obs.Gauge
	searchObjEval *obs.Histogram

	// tenant holds the multi-tenant dispatcher's instruments (tenants.go).
	tenant *tenantMetrics
}

// initMetrics registers the service instrument families plus the liveness
// gauges that read server state on scrape.
func (s *Server) initMetrics() {
	reg := s.reg
	s.met = &serverMetrics{
		sweepsSubmitted: reg.Counter("service_sweeps_submitted_total", "Sweeps accepted by POST /sweeps."),
		sweepsFinished:  reg.CounterVec("service_sweeps_finished_total", "Sweeps reaching a terminal state, by state (done, cancelled).", "state"),
		sweepsEvicted:   reg.Counter("service_sweeps_evicted_total", "Finished sweeps evicted by the retention cap."),
		points:          reg.CounterVec("service_points_completed_total", "Grid points settled across all sweeps, by outcome (ok, failed, cancelled).", "outcome"),
		firstRowSeconds: reg.Histogram("service_submit_to_first_row_seconds", "Latency from sweep submission to its first settled point.", obs.LatencyBuckets),
		httpRequests:    reg.CounterVec("service_http_requests_total", "HTTP requests served, by status code.", "code"),

		executeRequests: reg.CounterVec("remote_worker_requests_total", "Worker /execute requests by outcome (ok, bad_request, failed, abandoned).", "outcome"),
		executeSeconds:  reg.Histogram("remote_worker_request_seconds", "Worker /execute handling latency, including slot queueing.", obs.LatencyBuckets),

		workerDispatched: reg.CounterVec("service_worker_points_dispatched_total", "Points dispatched to each worker, the coordinator's own engine as local.", "worker"),
		workerRequeued:   reg.CounterVec("service_worker_points_requeued_total", "Points requeued after a transport failure, by the worker that failed.", "worker"),
		workerFailed:     reg.CounterVec("service_worker_points_failed_total", "Dispatches that returned an error, by worker.", "worker"),
		workerHealth:     reg.CounterVec("service_worker_health_transitions_total", "Per-sweep worker health transitions (to dead when consecutive transport failures hit the cap, back to healthy on the next successful dispatch).", "worker", "to"),

		taskLatency:  reg.HistogramVec("sim_task_latency_cycles", "Task queue-to-retire latency percentiles per executed point, in simulated cycles.", obs.CycleBuckets, "quantile"),
		dmuOccupancy: reg.HistogramVec("sim_dmu_occupancy_entries", "DMU structure occupancy samples per executed point (entries in flight).", occupancyBuckets, "kind"),

		searchRungs:   reg.Counter("search_rungs_total", "Search rungs completed across all search sweeps."),
		searchSaved:   reg.Gauge("search_points_saved", "Cumulative grid points search sweeps avoided evaluating versus their exhaustive expansions."),
		searchObjEval: reg.Histogram("search_objective_eval_seconds", "Latency of extracting the objective metric from a settled point's result.", obs.LatencyBuckets),

		tenant: newTenantMetrics(reg),
	}
	reg.GaugeFunc("service_sweeps_active", "Sweeps currently running.", func() float64 {
		sweeps, _ := load(s.Tenants())
		return float64(sweeps)
	})
	reg.GaugeFunc("service_dispatch_queue_depth", "Grid points of running sweeps not yet settled.", func() float64 {
		_, points := load(s.Tenants())
		return float64(points)
	})
	reg.GaugeFunc("service_workers_registered", "Fleet workers currently registered.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.workers))
	})
}

// load sums the tenants' running sweeps and their unsettled points: the
// work the workers, registered or local, still owe.
func load(tenants []TenantInfo) (sweeps, points int) {
	for _, t := range tenants {
		sweeps += t.RunningSweeps
		points += t.ActivePoints
	}
	return sweeps, points
}

// settlePoint appends one finished point to its sweep and feeds the
// service-level instruments: per-outcome point counts and submit-to-first-row
// latency.
func (s *Server) settlePoint(sw *sweep, p Point, res *core.Result) {
	// Search sweeps additionally capture the point's objective value for the
	// controller to feed back to the searcher once the rung completes.
	if run := sw.search; run != nil {
		o := searchObs{cycles: p.Cycles, failed: p.Error != "" || p.Cancelled}
		if !o.failed {
			start := time.Now()
			v, err := run.objective.Value(res)
			s.met.searchObjEval.Observe(time.Since(start).Seconds())
			if err != nil {
				p.Error = err.Error()
				o.failed = true
			} else {
				o.value = v
			}
		}
		run.record(p.Index, o)
	}
	first := sw.append(p) == 1
	outcome := "ok"
	switch {
	case p.Cancelled:
		outcome = "cancelled"
	case p.Error != "":
		outcome = "failed"
	}
	s.met.points.With(outcome).Inc()
	if first {
		s.met.firstRowSeconds.Observe(s.now().Sub(sw.submitted).Seconds())
	}
}

// observeSim feeds one executed point's simulated task-latency and
// DMU-occupancy samples to their distributions. dispatchPoint calls it once
// per successful execution, so a result served again from a store tier adds
// nothing.
func (s *Server) observeSim(res *core.Result) {
	if res == nil || res.Result == nil {
		return
	}
	if l := res.TaskLatency; l != nil {
		s.met.taskLatency.With("p50").Observe(float64(l.P50))
		s.met.taskLatency.With("p90").Observe(float64(l.P90))
		s.met.taskLatency.With("p99").Observe(float64(l.P99))
	}
	if len(res.Occupancy) == 0 {
		return
	}
	tasks, deps := s.met.dmuOccupancy.With("tasks"), s.met.dmuOccupancy.With("deps")
	for _, o := range res.Occupancy {
		tasks.Observe(float64(o.DMUTasks))
		deps.Observe(float64(o.DMUDeps))
	}
}

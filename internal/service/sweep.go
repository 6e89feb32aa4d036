package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/stats"
)

// State is the lifecycle phase of a submitted sweep.
type State string

// Sweep lifecycle states.
const (
	// StateRunning: points are executing (or queued behind the worker pool).
	StateRunning State = "running"
	// StateDone: every point completed (individual points may still have
	// failed; see the per-point Error fields).
	StateDone State = "done"
	// StateCancelled: the sweep was cancelled (client request, stream
	// disconnect, or daemon drain) before every point completed.
	StateCancelled State = "cancelled"
)

// Stream row kinds: a Point whose Row is empty is an ordinary per-job result
// row; RowLeaderboard marks the intermediate leaderboard snapshots a search
// sweep interleaves after each rung.
const RowLeaderboard = "leaderboard"

// Point is the per-job record a sweep accumulates and streams as NDJSON.
// Exactly one of Error or the result fields is meaningful.
//
// Search sweeps interleave a second row kind on the same stream: after each
// rung a row with Row == RowLeaderboard carries the rung number, how many
// points have been evaluated so far, and the current best configurations.
// Clients that only want results filter on Row == "".
type Point struct {
	// Row discriminates the NDJSON row kind: "" for a per-job result row,
	// RowLeaderboard for a search sweep's intermediate leaderboard.
	Row string `json:"row,omitempty"`
	// Rung and Evaluated are set on leaderboard rows: the completed rung
	// count and the points evaluated so far.
	Rung      int `json:"rung,omitempty"`
	Evaluated int `json:"evaluated,omitempty"`
	// Best is the leaderboard row's payload: the best configurations found
	// so far, best first.
	Best []LeaderboardEntry `json:"best,omitempty"`

	// Index is the job's position in the submitted grid expansion.
	Index int `json:"index"`
	// Key is the content-addressed job key (the result store file name).
	Key         string `json:"key"`
	Benchmark   string `json:"benchmark"`
	Runtime     string `json:"runtime"`
	Scheduler   string `json:"scheduler"`
	Cores       int    `json:"cores"`
	Granularity int64  `json:"granularity"`
	// Error is the simulation failure, "" on success.
	Error string `json:"error,omitempty"`
	// Cancelled marks points that stopped because the sweep was cancelled.
	Cancelled bool    `json:"cancelled,omitempty"`
	Tasks     int     `json:"tasks,omitempty"`
	Cycles    int64   `json:"cycles,omitempty"`
	Seconds   float64 `json:"seconds,omitempty"`
	EnergyJ   float64 `json:"energy_joules,omitempty"`
	AvgPowerW float64 `json:"avg_power_watts,omitempty"`
	EDP       float64 `json:"edp,omitempty"`
	// TaskLatency summarizes the point's per-task queue-to-retire latency
	// (cycles from task creation to retirement), when the simulation
	// recorded it.
	TaskLatency *stats.LatencySummary `json:"task_latency,omitempty"`
}

// LeaderboardEntry is one ranked configuration in a search sweep's
// leaderboard (stream rows and status), best first.
type LeaderboardEntry struct {
	// Index is the configuration's position in the grid expansion.
	Index       int    `json:"index"`
	Benchmark   string `json:"benchmark"`
	Runtime     string `json:"runtime"`
	Scheduler   string `json:"scheduler"`
	Cores       int    `json:"cores"`
	Granularity int64  `json:"granularity"`
	// Value is the configuration's objective value.
	Value float64 `json:"value"`
}

// SearchStatus is the search-mode progress block of Status.
type SearchStatus struct {
	Strategy  string `json:"strategy"`
	Objective string `json:"objective"`
	// Budget is the evaluation cap; SpacePoints is the exhaustive expansion
	// the search is avoiding.
	Budget      int `json:"budget"`
	SpacePoints int `json:"space_points"`
	// Rung counts completed rungs (of at most Rungs); Evaluated counts
	// points observed so far.
	Rung      int `json:"rung"`
	Rungs     int `json:"rungs"`
	Evaluated int `json:"evaluated"`
	// Saved is SpacePoints - Evaluated, reported once the search concludes.
	Saved int `json:"saved,omitempty"`
	// Best is the current leaderboard, best first.
	Best []LeaderboardEntry `json:"best,omitempty"`
}

// Status is the progress snapshot served by GET /sweeps/{id}.
type Status struct {
	ID string `json:"id"`
	// Tenant owns the sweep for dispatch weighting and quota accounting.
	Tenant string `json:"tenant,omitempty"`
	State  State  `json:"state"`
	// Total is the number of points the sweep will settle — the grid
	// expansion for exhaustive sweeps, the search budget (shrunk to the
	// actual evaluation count at completion) for search sweeps. Completed
	// and Failed count finished points (Completed includes cache hits).
	// Cancelled counts points that stopped because the sweep was cancelled
	// — they are not failures; a routine drain must not trip failure
	// alerts.
	Total     int       `json:"total"`
	Completed int       `json:"completed"`
	Failed    int       `json:"failed"`
	Cancelled int       `json:"cancelled,omitempty"`
	Submitted time.Time `json:"submitted"`
	// Finished is zero while the sweep is running.
	Finished time.Time `json:"finished,omitzero"`
	// Search reports rung progress and the current best configurations for
	// search-mode sweeps (absent on exhaustive sweeps).
	Search *SearchStatus `json:"search,omitempty"`
}

// sweep is one submitted grid: its jobs, its cancellation scope and the
// append-only point log streamers replay and follow.
type sweep struct {
	id        string
	tenant    string
	jobs      []runner.Job
	submitted time.Time
	cancel    context.CancelCauseFunc

	// search is non-nil for search-mode sweeps: the controller state that
	// turns settled points into searcher observations (see search.go).
	search *searchRun

	mu        sync.Mutex
	points    []Point // completion order (result rows + leaderboard rows)
	pointRows int     // result rows among points (excludes leaderboard rows)
	total     int     // points the sweep expects to settle (see Status.Total)
	failed    int
	cancelled int
	state     State
	finished  time.Time
	searchSt  *SearchStatus
	// changed is closed and replaced whenever points grow or the state
	// moves, waking every streamer (a broadcast without a condition
	// variable, so streamers can also select on their request context).
	changed chan struct{}
}

func newSweep(id, tenant string, jobs []runner.Job, cancel context.CancelCauseFunc, now time.Time) *sweep {
	return &sweep{
		id:        id,
		tenant:    tenant,
		jobs:      jobs,
		submitted: now,
		cancel:    cancel,
		total:     len(jobs),
		state:     StateRunning,
		changed:   make(chan struct{}),
	}
}

// broadcast wakes streamers; callers must hold mu.
func (s *sweep) broadcast() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// append records one finished point, returning how many result rows the
// sweep has settled so far (1 for the sweep's first point). Leaderboard rows
// join the stream log without touching the progress counters.
func (s *sweep) append(p Point) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Row == "" {
		s.pointRows++
		switch {
		case p.Cancelled:
			s.cancelled++
		case p.Error != "":
			s.failed++
		}
	}
	s.points = append(s.points, p)
	s.broadcast()
	return s.pointRows
}

// setSearch updates the search progress block (and, when the search
// concludes with fewer evaluations than its budget, shrinks the expected
// total so a done sweep reports total == settled points).
func (s *sweep) setSearch(st *SearchStatus, final bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.searchSt = st
	if final {
		s.total = s.pointRows
	}
	s.broadcast()
}

// unsettled is the sweep's load on its tenant's quotas: the points it has
// yet to settle.
func (s *sweep) unsettled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total - s.pointRows
}

// finish moves the sweep to its terminal state.
func (s *sweep) finish(state State, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateRunning {
		return
	}
	s.state = state
	s.finished = now
	s.broadcast()
}

// status snapshots the progress counters.
func (s *sweep) status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID:        s.id,
		Tenant:    s.tenant,
		State:     s.state,
		Total:     s.total,
		Completed: s.pointRows - s.failed - s.cancelled,
		Failed:    s.failed,
		Cancelled: s.cancelled,
		Submitted: s.submitted,
		Finished:  s.finished,
	}
	if s.searchSt != nil {
		cp := *s.searchSt
		st.Search = &cp
	}
	return st
}

// next returns the points from offset onward, whether the stream is complete
// (terminal state reached and nothing further pending), and the channel a
// follower waits on for the next change.
func (s *sweep) next(offset int) ([]Point, bool, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Point
	if offset < len(s.points) {
		out = append(out, s.points[offset:]...)
	}
	done := s.state != StateRunning && offset+len(out) == len(s.points)
	return out, done, s.changed
}

// PointOf flattens a finished job into its result row: the job's grid
// coordinates under base, then err's message or res's measurements.
// Hardware-scheduled runtimes (Carbon, Task Superscalar) report scheduler
// "-": a software policy there would be misleading.
func PointOf(idx int, j runner.Job, key string, base core.Config, res *core.Result, err error) Point {
	cfg := j.Config(base)
	scheduler := cfg.Scheduler
	if !j.Runtime.UsesSoftwareScheduler() {
		scheduler = "-"
	}
	p := Point{
		Index:       idx,
		Key:         key,
		Benchmark:   j.Benchmark,
		Runtime:     string(j.Runtime),
		Scheduler:   scheduler,
		Cores:       cfg.Machine.Cores,
		Granularity: j.Granularity,
	}
	switch {
	case err != nil:
		p.Error = err.Error()
	case res != nil:
		p.Tasks = res.TasksExecuted
		p.Cycles = res.Cycles
		p.Seconds = res.Seconds
		p.EnergyJ = res.Energy.EnergyJoules
		p.AvgPowerW = res.Energy.AveragePowerW
		p.EDP = res.Energy.EDP
		p.TaskLatency = res.TaskLatency
	}
	return p
}

package service

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/search"
)

// The search half of sweep execution: a sweep submitted with a "search"
// stanza evaluates only the rung batches the internal/search Searcher
// proposes instead of the whole grid. Each batch runs through the same
// launch loop as an exhaustive sweep — tenant grants applied, every point
// memoized in the content-addressed store — and the observed objective
// values are fed back to the searcher in deterministic batch order, so the
// search trajectory is reproducible regardless of evaluation concurrency.

// SearchRequest is the "search" stanza of POST /sweeps: present, the sweep
// becomes a design-space search over the submitted grid instead of an
// exhaustive expansion.
type SearchRequest struct {
	// Strategy selects the algorithm; "" and "halving" are successive
	// halving (the only strategy today).
	Strategy string `json:"strategy,omitempty"`
	// Objective is the metric to optimize: "min:<metric>" or "max:<metric>"
	// (bare "<metric>" minimizes) over cycles, seconds, energy, edp, power,
	// latency_p50, latency_p90, latency_p99.
	Objective string `json:"objective"`
	// Budget caps evaluated points; 0 means half the grid.
	Budget int `json:"budget,omitempty"`
	// BudgetCycles additionally stops the search once the cumulative
	// simulated cycles of evaluated points exceed it (0 = no cycle budget).
	BudgetCycles int64 `json:"budget_cycles,omitempty"`
	// Rungs caps promotion rounds (0 = default 4); Eta is the promotion
	// denominator (0 = halving, i.e. 2).
	Rungs int `json:"rungs,omitempty"`
	Eta   int `json:"eta,omitempty"`
	// Seed drives the sampling; equal seeds reproduce the search exactly.
	Seed int64 `json:"seed,omitempty"`
	// Top bounds the leaderboard rows and status Best list (0 = 10).
	Top int `json:"top,omitempty"`
}

// defaultLeaderboardTop is the leaderboard size when the stanza leaves Top
// unset.
const defaultLeaderboardTop = 10

// searchObs is one settled point's contribution to the searcher.
type searchObs struct {
	value  float64
	cycles int64
	failed bool
}

// searchRun is the per-sweep search state bridging settled points (arriving
// concurrently from the launch loop's workers) back to the serial Searcher.
type searchRun struct {
	searcher  *search.Searcher
	objective search.Objective
	top       int

	mu  sync.Mutex
	obs map[int]searchObs
}

// newSearchRun validates the stanza against the grid and prepares the
// searcher.
func newSearchRun(req *SearchRequest, grid runner.Grid) (*searchRun, error) {
	obj, err := search.ParseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	space, err := search.NewSpace(grid)
	if err != nil {
		return nil, err
	}
	sr, err := search.New(space, search.Config{
		Strategy:     req.Strategy,
		Objective:    obj,
		Budget:       req.Budget,
		BudgetCycles: req.BudgetCycles,
		Rungs:        req.Rungs,
		Eta:          req.Eta,
		Seed:         req.Seed,
	})
	if err != nil {
		return nil, err
	}
	top := req.Top
	if top <= 0 {
		top = defaultLeaderboardTop
	}
	if req.Top < 0 {
		return nil, fmt.Errorf("search: negative leaderboard size %d", req.Top)
	}
	return &searchRun{searcher: sr, objective: obj, top: top, obs: make(map[int]searchObs)}, nil
}

// record captures one settled point's observation (called from settlePoint,
// concurrently).
func (r *searchRun) record(idx int, o searchObs) {
	r.mu.Lock()
	r.obs[idx] = o
	r.mu.Unlock()
}

// take removes and returns the point's observation; ok is false when the
// point never settled (the sweep was cancelled before it started).
func (r *searchRun) take(idx int) (searchObs, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o, ok := r.obs[idx]
	delete(r.obs, idx)
	return o, ok
}

// entryOf flattens a ranked search point into its leaderboard form, with
// PointOf's coordinates.
func entryOf(e search.Entry, base core.Config) LeaderboardEntry {
	p := PointOf(e.Index, e.Job, "", base, nil, nil)
	return LeaderboardEntry{
		Index:       e.Index,
		Benchmark:   p.Benchmark,
		Runtime:     p.Runtime,
		Scheduler:   p.Scheduler,
		Cores:       p.Cores,
		Granularity: p.Granularity,
		Value:       e.Value,
	}
}

// searchStatus snapshots the searcher into the status block. Callers
// serialize (the controller owns the searcher between rungs).
func (r *searchRun) searchStatus(final bool) *SearchStatus {
	cfg := r.searcher.Config()
	best := make([]LeaderboardEntry, 0, r.top)
	st := &SearchStatus{
		Strategy:    cfg.Strategy,
		Objective:   cfg.Objective.String(),
		Budget:      cfg.Budget,
		SpacePoints: r.searcher.SpaceLen(),
		Rung:        r.searcher.Rung(),
		Rungs:       cfg.Rungs,
		Evaluated:   r.searcher.Evaluated(),
		Best:        best,
	}
	if final {
		st.Saved = st.SpacePoints - st.Evaluated
	}
	return st
}

// runSearch drives a search sweep rung by rung: propose a batch, execute it
// through the launch loop, feed the observations back in deterministic
// batch order, publish a leaderboard row, repeat until the searcher is done
// or the sweep is cancelled.
func (s *Server) runSearch(ctx context.Context, sw *sweep, fleet []*worker) {
	run := sw.search
	base := s.engine.Base
	for {
		batch := run.searcher.Next()
		if batch == nil {
			break
		}
		s.runPoints(ctx, sw, fleet, batch)
		// Feed observations in batch order — a fixed order regardless of
		// which worker finished first — so the next rung's promotion is a
		// pure function of (grid, config, seed). Points the cancellation cut
		// off before they settled observe as failed.
		for _, idx := range batch {
			o, ok := run.take(idx)
			run.searcher.Observe(idx, o.value, o.cycles, o.failed || !ok)
		}
		s.met.searchRungs.Inc()

		st := run.searchStatus(false)
		for _, e := range run.searcher.Leaderboard(run.top) {
			st.Best = append(st.Best, entryOf(e, base))
		}
		sw.setSearch(st, false)
		sw.append(Point{
			Row:       RowLeaderboard,
			Rung:      st.Rung,
			Evaluated: st.Evaluated,
			Best:      st.Best,
		})
		s.log().Info("search rung completed",
			"sweep", sw.id, "rung", st.Rung, "evaluated", st.Evaluated,
			"space", st.SpacePoints, "leaders", len(st.Best))
		if ctx.Err() != nil {
			return
		}
	}
	st := run.searchStatus(true)
	for _, e := range run.searcher.Leaderboard(run.top) {
		st.Best = append(st.Best, entryOf(e, base))
	}
	sw.setSearch(st, true)
	s.met.searchSaved.Add(float64(st.Saved))
	s.log().Info("search concluded",
		"sweep", sw.id, "evaluated", st.Evaluated, "space", st.SpacePoints,
		"saved", st.Saved, "rungs", st.Rung)
}

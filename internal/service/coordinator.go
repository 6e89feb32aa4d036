package service

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
)

// Every sweep point runs through one launch loop, runPoints: it pulls a
// point, takes the point's tenant grant, takes a free slot on a live worker
// and runs the point on that worker in its own goroutine. Workers are the
// fleet registered via the -peers flag or PUT /workers, followed by the
// coordinator's own engine as the worker named "local". The local worker is
// the standby: it takes a point only while none of the sweep's registered
// workers is alive, so it runs every point when no worker is registered and
// a sweep's leftovers once its whole fleet has died. Every result funnels
// through the coordinator's content-addressed store: warm keys are never
// dispatched, and completed points persist on the coordinator even when the
// worker that computed them dies a moment later. A key resident in the
// store's memory tier settles in the launch loop itself, without a grant, a
// slot or a goroutine, so tenant grants count executions.
//
// Failure semantics: a transport failure (worker crashed, connection
// dropped) requeues the point for another worker, while a failure of the
// point itself is recorded as that point's error without retry. A
// registered worker that fails maxWorkerFails consecutive dispatches is
// considered dead for the remainder of the sweep. The per-point redispatch
// cap scales with the fleet (maxWorkerFails per worker, plus slack), so a
// point can only exhaust its attempts under pathological flakiness, never
// merely because the fleet shrank.

const (
	// defaultWorkerSlots is how many points are dispatched concurrently to
	// a worker that registered without an explicit slot count.
	defaultWorkerSlots = 4
	// maxWorkerSlots caps a registration's slot count: each slot lets
	// every running sweep keep one more point goroutine in flight, so an
	// unbounded value would let one PUT /workers request exhaust the
	// coordinator.
	maxWorkerSlots = 256
	// maxWorkerFails is how many consecutive transport failures mark a
	// worker dead for the rest of the sweep.
	maxWorkerFails = 3
)

// localWorker names the coordinator's own engine in dispatch metrics and
// logs. It is never listed among the registered workers.
const localWorker = "local"

// worker is one execution target: a registered fleet member, or the
// coordinator's own engine as the local standby.
type worker struct {
	name  string
	exec  runner.Executor
	slots int

	// points counts results this worker delivered (across sweeps).
	points atomic.Int64

	mu      sync.Mutex
	lastErr string
	errAt   time.Time
}

func (w *worker) noteErr(err error, now time.Time) {
	w.mu.Lock()
	w.lastErr, w.errAt = err.Error(), now
	w.mu.Unlock()
}

// WorkerInfo is the listing entry served by GET /workers.
type WorkerInfo struct {
	Name  string `json:"name"`
	Slots int    `json:"slots"`
	// Points counts results the worker has delivered since registration.
	Points int64 `json:"points"`
	// LastError is the most recent dispatch failure ("" if none).
	LastError   string    `json:"last_error,omitempty"`
	LastErrorAt time.Time `json:"last_error_at,omitzero"`
}

func (w *worker) info() WorkerInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerInfo{
		Name:        w.name,
		Slots:       w.slots,
		Points:      w.points.Load(),
		LastError:   w.lastErr,
		LastErrorAt: w.errAt,
	}
}

// RegisterWorker adds (or replaces, by name) a fleet worker. Sweeps
// submitted after registration dispatch to the fleet; sweeps already
// running keep the fleet snapshot they started with. slots <= 0 uses
// defaultWorkerSlots; values beyond maxWorkerSlots are clamped.
//
// Registration also grows the tenant dispatcher's grant pool by the
// worker's slots (replacement adjusts by the slot delta): grant capacity
// always covers the local worker's slots plus every registered slot, so the
// dispatcher arbitrates tenants without capping fleet throughput.
func (s *Server) RegisterWorker(name string, exec runner.Executor, slots int) {
	if slots <= 0 {
		slots = defaultWorkerSlots
	}
	if slots > maxWorkerSlots {
		slots = maxWorkerSlots
	}
	s.mu.Lock()
	if s.workers == nil {
		s.workers = make(map[string]*worker)
	}
	if _, ok := s.workers[name]; !ok {
		s.workerOrder = append(s.workerOrder, name)
	}
	s.workers[name] = &worker{name: name, exec: exec, slots: slots}
	fleetSlots := 0
	for _, w := range s.workers {
		fleetSlots += w.slots
	}
	s.mu.Unlock()
	s.disp.setCapacity(s.local.slots + fleetSlots)
}

// Workers lists the registered fleet in registration order.
func (s *Server) Workers() []WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerInfo, 0, len(s.workerOrder))
	for _, name := range s.workerOrder {
		out = append(out, s.workers[name].info())
	}
	return out
}

// fleetSnapshot returns the registered workers in registration order; a
// sweep dispatches over the snapshot taken at its start.
func (s *Server) fleetSnapshot() []*worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*worker, 0, len(s.workerOrder))
	for _, name := range s.workerOrder {
		out = append(out, s.workers[name])
	}
	return out
}

// RegisterWorkerRequest is the body of PUT /workers.
type RegisterWorkerRequest struct {
	// URL is the worker's base URL (any sweepd's address).
	URL string `json:"url"`
	// Slots bounds concurrent points dispatched to this worker; 0 uses the
	// default.
	Slots int `json:"slots,omitempty"`
}

func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	if s.WorkerFactory == nil {
		s.httpError(w, r, http.StatusNotImplemented, codedf(CodeNotImplemented, "this daemon does not accept worker registrations"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	var req RegisterWorkerRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		s.httpError(w, r, http.StatusBadRequest, coded(CodeInvalidBody, fmt.Errorf("decode registration: %w", err)))
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		s.httpError(w, r, http.StatusBadRequest, codedf(CodeInvalidWorker, "worker url %q must be absolute http(s)", req.URL))
		return
	}
	if req.Slots < 0 || req.Slots > maxWorkerSlots {
		s.httpError(w, r, http.StatusBadRequest, codedf(CodeInvalidWorker, "invalid slots %d (0 for the default, max %d)", req.Slots, maxWorkerSlots))
		return
	}
	name := strings.TrimRight(req.URL, "/")
	s.RegisterWorker(name, s.WorkerFactory(name), req.Slots)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s.Workers())
}

func (s *Server) handleListWorkers(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s.Workers())
}

// pointTask is one queued grid point: its job index plus how many times a
// transport failure has already bounced it between workers. The launch loop
// sets its key when it pulls the task.
type pointTask struct {
	idx      int
	attempts int
	key      string
}

// lane is one worker as one runPoints call sees it: the points it has in
// flight on the worker and the worker's consecutive transport failures.
// Worker death is thus tracked per sweep (per rung of a search), so a
// worker that died during one sweep is retried fresh by the next.
type lane struct {
	*worker
	busy  int // guarded by lanes.mu
	fails atomic.Int32
}

// lanes holds a sweep's slots: one lane per registered worker of its fleet
// snapshot, plus the local standby.
type lanes struct {
	mu    sync.Mutex
	fleet []*lane
	local *lane
	// wake holds a token whenever a slot freed since the launcher last
	// looked, so the launcher can wait for one without polling.
	wake chan struct{}
}

// take reserves a free slot on a live worker, waiting for one to free up; it
// returns nil if ctx ends first. Registered workers are tried in
// registration order. The local worker takes a point only while no
// registered worker is alive.
func (ls *lanes) take(ctx context.Context) *lane {
	for {
		if l := ls.pick(); l != nil {
			return l
		}
		select {
		case <-ls.wake:
		case <-ctx.Done():
			return nil
		}
	}
}

func (ls *lanes) pick() *lane {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	standby := true
	for _, l := range ls.fleet {
		if l.fails.Load() >= maxWorkerFails {
			continue // dead for this sweep
		}
		standby = false
		if l.busy < l.slots {
			l.busy++
			return l
		}
	}
	if standby && ls.local.busy < ls.local.slots {
		ls.local.busy++
		return ls.local
	}
	return nil
}

// put frees a slot taken by take and wakes the launcher.
func (ls *lanes) put(l *lane) {
	ls.mu.Lock()
	l.busy--
	ls.mu.Unlock()
	select {
	case ls.wake <- struct{}{}:
	default:
	}
}

// runPoints executes the given jobs of a sweep (exhaustive sweeps pass every
// index; search rungs pass their batch) over the fleet snapshot and the
// local standby. The launch loop pulls a point and settles it at once if
// its result is resident in the store's memory tier. Otherwise it takes the
// point's tenant grant — under contention the dispatcher decides whose
// point launches next — then a free slot on a live worker, and runs the
// point in its own goroutine. Before it launches a point with points left
// to pull, it queues the sweep's next grant request, so its tenant always
// has a request waiting when the point settles: a tenant with no queued or
// active grant counts as returning from idle, and its pass would jump to
// the busy tenants' virtual time. The queue is buffered to the batch size,
// so a requeue never blocks: at most len(idxs) tasks exist at any time. A
// cancelled sweep stops launching at once; its unstarted points stay
// unreported.
func (s *Server) runPoints(ctx context.Context, sw *sweep, fleet []*worker, idxs []int) {
	if len(idxs) == 0 {
		return
	}
	queue := make(chan pointTask, len(idxs))
	for _, i := range idxs {
		queue <- pointTask{idx: i}
	}
	var pending atomic.Int64
	pending.Store(int64(len(idxs)))
	done := make(chan struct{})
	settle := func(p Point, res *core.Result) {
		s.settlePoint(sw, p, res)
		if pending.Add(-1) == 0 {
			close(done)
		}
	}
	ls := &lanes{local: &lane{worker: s.local}, wake: make(chan struct{}, 1)}
	for _, w := range fleet {
		ls.fleet = append(ls.fleet, &lane{worker: w})
	}

	// A point bounces between workers on transport failures; every bounce
	// costs its worker one consecutive-failure credit, so fleet-wide
	// bounces are bounded by maxWorkerFails per worker. The cap is only a
	// backstop against pathological flakiness (a worker that stays healthy
	// while one specific point's dispatches keep failing).
	attemptCap := maxWorkerFails*len(fleet) + 2

	var wg sync.WaitGroup
	defer wg.Wait()
	var ahead *grant // the sweep's next grant request, queued before a launch
	defer func() {
		if ahead != nil {
			s.disp.abandon(ahead)
		}
	}()
	for {
		if ahead != nil && len(queue) == 0 {
			// The points left were resident: nothing is left to launch.
			s.disp.abandon(ahead)
			ahead = nil
		}
		var t pointTask
		select {
		case t = <-queue:
		case <-done:
			return
		case <-ctx.Done():
			return
		}
		// Both yields below hand the processor to the NDJSON writer woken
		// by a settled point and to any other runnable goroutine. Without
		// them the loop keeps its processor from one point to the next, and
		// the writer, and the network poller, which runs only when a
		// processor has nothing runnable, wait until the sweep runs out of
		// points.
		j := sw.jobs[t.idx]
		t.key = s.engine.Key(j)
		if st := s.engine.Store; st != nil {
			if res, ok := st.Resident(t.key); ok {
				// A resident point settles here, with no grant, slot or
				// goroutine: grants count executions.
				settle(PointOf(t.idx, j, t.key, s.engine.Base, res, nil), res)
				runtime.Gosched()
				continue
			}
		}
		g := ahead
		ahead = nil
		if g == nil {
			g = s.disp.enqueue(sw.tenant)
		}
		runtime.Gosched()
		if !s.disp.await(ctx, g) {
			return
		}
		l := ls.take(ctx)
		if l == nil {
			s.disp.release(g)
			return
		}
		if len(queue) > 0 {
			ahead = s.disp.enqueue(sw.tenant)
		}
		s.met.tenant.grants.With(sw.tenant).Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.disp.release(g)
			defer ls.put(l)
			s.dispatchPoint(ctx, sw, l, t, attemptCap, queue, settle)
		}()
	}
}

// dispatchPoint runs one pulled point on a worker through the coordinator's
// store: keys that turn up on disk, at a peer or in flight settle without a
// dispatch, results persist on the coordinator, and concurrent requests for
// one key share one dispatch. Each successful dispatch feeds the simulation
// telemetry once.
func (s *Server) dispatchPoint(ctx context.Context, sw *sweep, l *lane,
	t pointTask, attemptCap int, queue chan<- pointTask, settle func(Point, *core.Result)) {
	j, key := sw.jobs[t.idx], t.key
	// dispatched records whether this worker actually ran the point: a
	// store cache hit (or waiting out another slot's in-flight dispatch of
	// the same key) says nothing about this worker's health.
	dispatched := false
	exec := func(ctx context.Context) (*core.Result, error) {
		dispatched = true
		s.met.workerDispatched.With(l.name).Inc()
		res, err := l.exec.Execute(ctx, j)
		if err == nil {
			s.observeSim(res)
		}
		return res, err
	}
	var res *core.Result
	var err error
	if st := s.engine.Store; st != nil {
		res, _, err = st.Do(ctx, key, exec)
	} else {
		res, err = exec(ctx)
	}
	switch {
	case err == nil:
		if dispatched {
			if l.fails.Swap(0) >= maxWorkerFails {
				s.met.workerHealth.With(l.name, "healthy").Inc()
				s.log().Info("worker recovered", "sweep", sw.id, "worker", l.name)
			}
			l.points.Add(1)
		}
		settle(PointOf(t.idx, j, key, s.engine.Base, res, nil), res)
	case isCancelled(ctx, err):
		p := PointOf(t.idx, j, key, s.engine.Base, nil, err)
		p.Cancelled = true
		settle(p, nil)
	case runner.IsTransient(err):
		if dispatched {
			s.met.workerFailed.With(l.name).Inc()
			if l.fails.Add(1) == maxWorkerFails {
				s.met.workerHealth.With(l.name, "dead").Inc()
				s.log().Warn("worker marked dead for sweep",
					"sweep", sw.id, "worker", l.name, "err", err)
			}
			l.noteErr(err, s.now())
		}
		if t.attempts+1 >= attemptCap {
			err = fmt.Errorf("point failed %d dispatch attempts, last: %w", t.attempts+1, err)
			settle(PointOf(t.idx, j, key, s.engine.Base, nil, err), nil)
			return
		}
		s.met.workerRequeued.With(l.name).Inc()
		s.log().Info("point requeued after transport failure",
			"sweep", sw.id, "worker", l.name, "point", t.idx, "attempts", t.attempts+1)
		queue <- pointTask{idx: t.idx, attempts: t.attempts + 1}
	default:
		// The point itself failed; another worker would fail it the same
		// way.
		if dispatched {
			s.met.workerFailed.With(l.name).Inc()
		}
		settle(PointOf(t.idx, j, key, s.engine.Base, nil, err), nil)
	}
}

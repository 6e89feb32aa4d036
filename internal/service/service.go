// Package service turns the sweep engine into a long-running HTTP service:
// clients submit simulation grids (the same benchmarks x runtimes x
// schedulers x cores x granularities grammar as cmd/sweep, including
// synth:<family> specs), the service executes them on the shared
// internal/runner engine — deduplicating points against every other sweep
// through the content-addressed store — and streams per-point results back as
// NDJSON while the sweep runs.
//
// Endpoints (see cmd/sweepd for the daemon wrapping this package). The API
// is versioned under /v1; only /healthz, /metrics, /debug/pprof and the
// fleet protocol's POST /execute are unversioned, and every other path 404s
// with the standard error envelope:
//
//	POST /v1/sweeps            submit a grid; ?stream=1 streams results on
//	                           the same connection and cancels the sweep
//	                           when the client disconnects
//	GET  /v1/sweeps            list sweep statuses (paged)
//	GET  /v1/sweeps/{id}        status and progress counters
//	GET  /v1/sweeps/{id}/stream replay + follow the sweep's results as NDJSON
//	POST /v1/sweeps/{id}/cancel stop the sweep's in-flight points
//	PUT  /v1/workers           register a remote execution worker
//	GET  /v1/workers           list the worker fleet and its health
//	GET  /v1/tenants           list tenants, their weights, quotas and load
//	PUT  /v1/tenants/{id}       configure a tenant (weight, quotas; may preempt)
//	GET  /v1/results/{key}      serve a cached result from the local store tiers
//	POST /execute              run one encoded job on this node's engine
//	GET  /healthz              liveness and drain state
//
// Server.Sweep is POST /v1/sweeps?stream=1 without the HTTP: it validates
// and runs a submission in process and returns its rows. cmd/sweep runs
// its local sweeps through it, and internal/remote.Client.Sweep is its
// twin over the wire.
//
// Every point of every sweep runs through one launch loop: a point resident
// in the store's memory tier settles there at once, and any other takes its
// tenant grant, then the next free slot on any live worker. With workers
// registered (PUT /workers, or sweepd's -peers flag) the service is a
// coordinator dispatching to its fleet; the engine it was created with is
// the standby worker "local", which runs every point while no worker is
// registered and finishes a sweep whose whole fleet died — see
// coordinator.go for the dispatch and failure semantics.
//
// Every node is also a worker: POST /execute and GET /v1/results/{key} are
// the serving half of the fleet protocol, and internal/remote is the asking
// half. POST /execute keeps its pre-/v1 path so nodes of different releases
// keep dispatching to each other.
//
// Cancellation is plumbed through the whole execution path: cancelling a
// sweep (explicitly, by disconnecting a ?stream=1 submission, or by draining
// the daemon) cancels the per-sweep context, which stops in-flight simulation
// points at task-boundary granularity (taskrt checks the context before every
// task creation and acquisition). Completed points are already persisted by
// the disk-backed store, so a cancelled or crashed sweep resumes warm when
// resubmitted.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/taskrt"
)

// Server executes submitted sweeps on a shared engine. Create with New.
type Server struct {
	engine *runner.Engine
	mux    *http.ServeMux

	// local is the standby worker executing on engine (see coordinator.go).
	local *worker

	// disp deals execution grants across tenants, weighted-fair, and owns
	// every tenant's state, its running sweeps included (see tenants.go).
	// Every executing point — local or dispatched to the fleet — holds a
	// grant.
	disp *dispatcher

	// MaxBodyBytes bounds a POST /sweeps request body; larger submissions
	// get 413. MaxPoints bounds a submitted grid's expansion; larger grids
	// get 400 before any job is allocated. Both are set before serving;
	// New installs the defaults.
	MaxBodyBytes int64
	MaxPoints    int

	// WorkerFactory turns a worker base URL from PUT /workers into its
	// executor (cmd/sweepd wires remote.NewExecutor here). nil rejects
	// dynamic registration with 501; RegisterWorker still works.
	WorkerFactory func(url string) runner.Executor

	// Log receives structured request and sweep lifecycle records; nil
	// discards them. Set before serving.
	Log *slog.Logger

	// reg collects every service-level instrument (and, unless the engine
	// brought its own, the engine and store instruments); met holds the
	// handles handler code updates. Served by GET /metrics.
	reg *obs.Registry
	met *serverMetrics

	// reqSeq numbers requests for log correlation.
	reqSeq atomic.Int64

	// baseCtx parents every sweep's context; cancelBase is the drain
	// switch that stops them all.
	baseCtx    context.Context
	cancelBase context.CancelCauseFunc

	mu       sync.Mutex
	sweeps   map[string]*sweep
	order    []string // submission order for listings
	nextID   int
	draining bool

	// workers is the registered execution fleet (see coordinator.go).
	// While it is empty, sweeps run on the local worker.
	workers     map[string]*worker
	workerOrder []string // registration order for listings and dispatch

	// maxRetained caps how many finished sweeps (and their per-point logs)
	// stay queryable; beyond it the oldest terminal sweeps are evicted so a
	// long-running daemon's memory stays bounded. Running sweeps are never
	// evicted.
	maxRetained int

	// wg tracks running sweep executors so Drain can wait for them.
	wg sync.WaitGroup

	// now is the clock, swappable in tests.
	now func() time.Time
}

// New creates a service executing sweeps on the engine, which becomes the
// local worker with workers slots: while no fleet is registered, that bounds
// the points in flight across all sweeps. Zero or negative falls back to the
// engine's WorkerCount. The engine's own Workers bound caps its concurrent
// simulations.
func New(engine *runner.Engine, workers int) *Server {
	if workers <= 0 {
		workers = engine.WorkerCount()
	}
	s := &Server{
		engine:       engine,
		local:        &worker{name: localWorker, exec: engine, slots: workers},
		sweeps:       make(map[string]*sweep),
		maxRetained:  256,
		MaxBodyBytes: DefaultMaxBodyBytes,
		MaxPoints:    DefaultMaxPoints,
		now:          time.Now,
		reg:          obs.NewRegistry(),
	}
	s.disp = newDispatcher(workers)
	s.initMetrics()
	s.disp.met = s.met.tenant
	// An engine (and store) without its own instruments joins the service
	// registry, so one /metrics scrape covers the whole execution path.
	if engine.Metrics == nil {
		engine.Metrics = runner.NewEngineMetrics(s.reg)
	}
	if engine.Store != nil && engine.Store.Metrics == nil {
		engine.Store.Metrics = runner.NewStoreMetrics(s.reg)
		runner.RegisterStoreGauges(s.reg, engine.Store)
	}
	s.baseCtx, s.cancelBase = context.WithCancelCause(context.Background())
	mux := http.NewServeMux()
	// The API surface is versioned under /v1. The unprefixed aliases of the
	// v1 routes were deprecated for one release and are gone: they now 404
	// with the standard envelope like any other unknown path. /healthz,
	// /metrics and /debug/pprof are operational endpoints and stay
	// unversioned, as does POST /execute (see handleExecute).
	apiRoute := func(pattern string, h http.HandlerFunc) {
		method, path, _ := strings.Cut(pattern, " ")
		mux.HandleFunc(method+" /v1"+path, h)
	}
	apiRoute("POST /sweeps", s.handleSubmit)
	apiRoute("GET /sweeps", s.handleList)
	apiRoute("GET /sweeps/{id}", s.handleStatus)
	apiRoute("GET /sweeps/{id}/stream", s.handleStream)
	apiRoute("POST /sweeps/{id}/cancel", s.handleCancel)
	apiRoute("PUT /workers", s.handleRegisterWorker)
	apiRoute("GET /workers", s.handleListWorkers)
	apiRoute("GET /tenants", s.handleListTenants)
	apiRoute("PUT /tenants/{id}", s.handleConfigureTenant)
	apiRoute("GET /results/{key}", s.handleResult)
	mux.HandleFunc("POST /execute", s.handleExecute)
	// Everything else — including the removed unprefixed aliases — gets the
	// enveloped 404 instead of the mux's plain-text one.
	mux.HandleFunc("/", s.handleNotFound)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", obs.Handler(s.reg))
	// pprof routes the named profiles itself under Index; cmdline, profile,
	// symbol and trace need their dedicated handlers.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Registry returns the server's metric registry, for callers that want to
// register additional instruments (for example the remote-dispatch metrics a
// coordinator shares across its fleet executors).
func (s *Server) Registry() *obs.Registry { return s.reg }

// log returns the structured logger (a discarding one when unset).
func (s *Server) log() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return slog.New(slog.DiscardHandler)
}

// Default ingress limits installed by New (see Server.MaxBodyBytes and
// Server.MaxPoints).
const (
	DefaultMaxBodyBytes = 1 << 20
	DefaultMaxPoints    = 100_000
)

// reqIDKey carries the per-request correlation ID through the context.
type reqIDKey struct{}

// requestID extracts the correlation ID the middleware assigned ("" outside
// a request served through Handler).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// statusWriter records the response status for the request log while
// preserving the Flusher the NDJSON streamers depend on.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Handler returns the HTTP handler serving the endpoints above. Every
// request gets a correlation ID (logged with each record the request
// produces), a structured access-log line, and a status-code count in
// service_http_requests_total.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r%06d", s.reqSeq.Add(1))
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
		sw := &statusWriter{ResponseWriter: w}
		start := s.now()
		s.mux.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.met.httpRequests.With(strconv.Itoa(sw.status)).Inc()
		s.log().Info("request",
			"req", id, "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "elapsed", s.now().Sub(start))
	})
}

// ErrDraining is the cancellation cause installed by Drain.
var ErrDraining = errors.New("service: draining")

// Drain stops the service for shutdown: new submissions are rejected with
// 503, every running sweep is cancelled with cause (in-flight simulation
// points stop at their next task boundary), and Drain blocks until every
// sweep executor has finished flushing its final state. Results persisted by
// a disk-backed store survive, so resubmitted sweeps resume warm after a
// restart. nil cause defaults to ErrDraining.
func (s *Server) Drain(cause error) {
	if cause == nil {
		cause = ErrDraining
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancelBase(cause)
	s.wg.Wait()
}

// SubmitRequest is the grid submission body of POST /sweeps. Empty
// dimensions fall back to the grid defaults (all benchmarks, all runtimes,
// FIFO, base core count, Table II optimal granularity).
type SubmitRequest struct {
	Benchmarks    []string `json:"benchmarks"`
	Runtimes      []string `json:"runtimes"`
	Schedulers    []string `json:"schedulers"`
	Cores         []int    `json:"cores"`
	Granularities []int64  `json:"granularities"`
	// Tenant attributes the sweep for weighted-fair dispatch and quota
	// admission (see tenants.go); "" means DefaultTenant.
	Tenant string `json:"tenant,omitempty"`
	// Search, when present, turns the sweep into a design-space search over
	// the grid: only the configurations the searcher proposes are evaluated
	// (see SearchRequest and internal/search).
	Search *SearchRequest `json:"search,omitempty"`
}

// grid converts the request into a validated job grid.
func (r SubmitRequest) grid() (runner.Grid, error) {
	g := runner.Grid{
		Benchmarks:    r.Benchmarks,
		Schedulers:    r.Schedulers,
		Cores:         r.Cores,
		Granularities: r.Granularities,
	}
	for _, k := range r.Runtimes {
		g.Runtimes = append(g.Runtimes, taskrt.Kind(k))
	}
	return g, g.Validate()
}

// SubmitResponse acknowledges an asynchronous submission.
type SubmitResponse struct {
	ID string `json:"id"`
	// Jobs is the size of the grid expansion.
	Jobs int `json:"jobs"`
	// Budget is the search evaluation cap (search submissions only): the
	// sweep settles at most this many of the Jobs points.
	Budget int `json:"budget,omitempty"`
}

// submit registers a sweep for the job list and starts executing it (the
// core of POST /sweeps). run is non-nil for search sweeps, which evaluate at
// most the search budget instead of the full expansion — quota admission
// charges the budget accordingly. The dispatcher admits the sweep under the
// same server lock that registers it, so the draining check, the ID and the
// registration are one step with the quota check.
func (s *Server) submit(jobs []runner.Job, tenant string, run *searchRun) (*sweep, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	id := fmt.Sprintf("s%04d", s.nextID+1)
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	sw := newSweep(id, tenant, jobs, cancel, s.now())
	if run != nil {
		sw.search = run
		sw.total = run.searcher.Config().Budget
		sw.searchSt = run.searchStatus(false)
	}
	if err := s.disp.admit(sw, sw.total); err != nil {
		s.mu.Unlock()
		cancel(nil)
		return nil, err
	}
	s.nextID++
	s.sweeps[id] = sw
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()

	s.met.sweepsSubmitted.Inc()
	go s.runSweep(ctx, sw)
	return sw, nil
}

// runSweep executes a sweep over the fleet snapshot taken at its start and
// the local standby — search sweeps evaluate the searcher's rung batches
// through the same launch loop — and settles the terminal state.
func (s *Server) runSweep(ctx context.Context, sw *sweep) {
	defer s.wg.Done()
	fleet := s.fleetSnapshot()
	// The sweep is one program-sharing scope, as a RunAll call is: its
	// in-process points generate each distinct program once.
	ctx = runner.WithPrograms(ctx)
	if sw.search != nil {
		s.runSearch(ctx, sw, fleet)
	} else {
		s.runPoints(ctx, sw, fleet, allIdxs(len(sw.jobs)))
	}
	state := StateDone
	if ctx.Err() != nil {
		state = StateCancelled
	}
	// Leave the ledger before finishing: a client that sees the sweep finish
	// is admitted against a load without it.
	s.disp.leave(sw)
	sw.finish(state, s.now())
	s.met.sweepsFinished.With(string(state)).Inc()
	st := sw.status()
	s.log().Info("sweep finished",
		"sweep", sw.id, "state", string(state), "total", st.Total,
		"completed", st.Completed, "failed", st.Failed, "cancelled", st.Cancelled,
		"elapsed", st.Finished.Sub(st.Submitted))
	// Release the sweep's context resources once the last point settled.
	sw.cancel(nil)
	s.evict()
}

// allIdxs enumerates a full grid expansion for exhaustive sweeps.
func allIdxs(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// isCancelled reports whether a point error is the sweep's cancellation
// rather than a failure of the point itself. Custom cancellation causes
// (drain, client abort) surface bare from store waiters, hence the cause
// comparison.
func isCancelled(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, taskrt.ErrCancelled) || errors.Is(err, context.Canceled) {
		return true
	}
	cause := context.Cause(ctx)
	return cause != nil && errors.Is(err, cause)
}

// evict drops the oldest finished sweeps beyond the retention cap. Results
// themselves live in the engine's store; only the per-sweep progress logs
// are released.
func (s *Server) evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	finished := 0
	for _, id := range s.order {
		if s.sweeps[id].status().State != StateRunning {
			finished++
		}
	}
	if finished <= s.maxRetained {
		return
	}
	kept := s.order[:0]
	evicted := 0
	for _, id := range s.order {
		if finished > s.maxRetained && s.sweeps[id].status().State != StateRunning {
			delete(s.sweeps, id)
			finished--
			evicted++
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	if evicted > 0 {
		s.met.sweepsEvicted.Add(float64(evicted))
		s.log().Info("evicted finished sweeps", "count", evicted, "retained", len(kept))
	}
}

// get looks a sweep up by path ID.
func (s *Server) get(id string) (*sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Validate the stream mode before committing the sweep: "?stream=yes"
	// must be a 400, not a silently asynchronous submission the client
	// believes it is following.
	stream := false
	if q := r.URL.Query().Get("stream"); q != "" {
		var err error
		if stream, err = strconv.ParseBool(q); err != nil {
			s.httpError(w, r, http.StatusBadRequest,
				codedf(CodeInvalidParam, "invalid stream value %q (want a boolean, e.g. stream=1)", q))
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	var req SubmitRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.httpError(w, r, http.StatusRequestEntityTooLarge,
				codedf(CodeBodyTooLarge, "submission body exceeds %d bytes", s.MaxBodyBytes))
			return
		}
		s.httpError(w, r, http.StatusBadRequest, coded(CodeInvalidBody, fmt.Errorf("decode submission: %w", err)))
		return
	}
	sw, err := s.open(req)
	var quota *quotaError
	switch {
	case errors.Is(err, ErrDraining):
		s.httpError(w, r, http.StatusServiceUnavailable, err)
		return
	case errors.As(err, &quota):
		// 429 in the uniform envelope plus the quota fields, so schedulers
		// can distinguish which budget tripped and back off accordingly:
		//
		//	{"error": "...", "code": "quota_exceeded", "tenant": "acme",
		//	 "quota": "max_active_points" | "max_queued_sweeps", "limit": 500}
		s.httpError(w, r, http.StatusTooManyRequests, err)
		return
	case err != nil:
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	resp := SubmitResponse{ID: sw.id, Jobs: len(sw.jobs)}
	if sw.search != nil {
		resp.Budget = sw.search.searcher.Config().Budget
	}
	s.log().Info("sweep submitted",
		"req", requestID(r.Context()), "sweep", sw.id, "tenant", sw.tenant,
		"jobs", len(sw.jobs), "search", sw.search != nil, "stream", stream)
	if stream {
		// Synchronous mode: stream results on this connection and cancel
		// the sweep when the client goes away — an aborted curl stops the
		// in-flight simulation points. ("" , "0" and "false" submit
		// asynchronously.)
		s.streamSweep(w, r, sw, true)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, resp)
}

// open validates a submission and starts its sweep: the one path from a
// SubmitRequest to a running sweep, shared by POST /v1/sweeps and Sweep.
// Every error carries its envelope code: a validation code, or
// quota_exceeded or draining from submit.
func (s *Server) open(req SubmitRequest) (*sweep, error) {
	grid, err := req.grid()
	if err != nil {
		return nil, coded(CodeInvalidGrid, err)
	}
	tenant, err := normalizeTenant(req.Tenant)
	if err != nil {
		return nil, coded(CodeInvalidTenant, err)
	}
	// Cap the expansion before allocating it: a small request body can
	// still describe a combinatorially explosive grid.
	switch size := grid.Size(); {
	case size == 0:
		return nil, codedf(CodeInvalidGrid, "empty grid")
	case size > s.MaxPoints:
		return nil, codedf(CodeGridTooLarge, "grid expands to %d points, exceeding this daemon's limit of %d", size, s.MaxPoints)
	}
	var run *searchRun
	if req.Search != nil {
		if run, err = newSearchRun(req.Search, grid); err != nil {
			return nil, coded(CodeInvalidSearch, err)
		}
	}
	sw, err := s.submit(grid.Jobs(), tenant, run)
	var quota *quotaError
	if errors.As(err, &quota) {
		s.met.tenant.rejected.With(quota.Tenant, quota.Quota).Inc()
	} else if errors.Is(err, ErrDraining) {
		err = coded(CodeDraining, err)
	}
	return sw, err
}

// Sweep runs a submission on this server and returns its rows in the order
// they settled, leaderboard rows included: the in-process twin of
// remote.Client.Sweep. The request is validated and admitted as
// POST /v1/sweeps does it, with the same coded errors. Cancelling ctx
// cancels the sweep; Sweep then returns the rows settled so far and the
// context's cause.
func (s *Server) Sweep(ctx context.Context, req SubmitRequest) ([]Point, error) {
	sw, err := s.open(req)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { sw.cancel(context.Cause(ctx)) })
	defer stop()
	var rows []Point
	for {
		points, done, changed := sw.next(len(rows))
		rows = append(rows, points...)
		if done {
			return rows, context.Cause(ctx)
		}
		<-changed
	}
}

// decodeStrict decodes JSON rejecting unknown fields and trailing garbage.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// List paging bounds: GET /sweeps returns at most DefaultListLimit sweeps
// unless ?limit= asks for more, capped at MaxListLimit.
const (
	DefaultListLimit = 100
	MaxListLimit     = 1000
)

// handleList serves GET /sweeps: sweep statuses in submission order, paged.
// ?limit= bounds the page (default DefaultListLimit, max MaxListLimit) and
// ?after=<sweep id> resumes past a previous page's last entry — pass the
// last ID you saw; a page shorter than the limit means the listing is
// exhausted. Sweeps evicted between pages are simply skipped: IDs ascend
// with submission, so the cursor stays valid.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := DefaultListLimit
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > MaxListLimit {
			s.httpError(w, r, http.StatusBadRequest,
				codedf(CodeInvalidParam, "invalid limit %q (want 1..%d)", q, MaxListLimit))
			return
		}
		limit = n
	}
	after := -1
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.Atoi(strings.TrimPrefix(q, "s"))
		if err != nil || !strings.HasPrefix(q, "s") || n < 0 {
			s.httpError(w, r, http.StatusBadRequest,
				codedf(CodeInvalidParam, "invalid after cursor %q (want a sweep id, e.g. after=s0042)", q))
			return
		}
		after = n
	}
	s.mu.Lock()
	statuses := make([]Status, 0, min(limit, len(s.order)))
	for _, id := range s.order {
		if after >= 0 {
			// IDs are "s%04d" in submission order; compare numerically so
			// the cursor survives the eventual rollover past four digits.
			if n, err := strconv.Atoi(strings.TrimPrefix(id, "s")); err == nil && n <= after {
				continue
			}
		}
		if len(statuses) == limit {
			break
		}
		statuses = append(statuses, s.sweeps[id].status())
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, statuses)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.get(r.PathValue("id"))
	if !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, sw.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.get(r.PathValue("id"))
	if !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	sw.cancel(fmt.Errorf("sweep %s cancelled by client", sw.id))
	s.log().Info("sweep cancel requested",
		"req", requestID(r.Context()), "sweep", sw.id)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, sw.status())
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.get(r.PathValue("id"))
	if !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	s.streamSweep(w, r, sw, false)
}

// streamSweep replays the sweep's finished points and follows new ones as
// NDJSON until the sweep reaches a terminal state (or the client goes away).
// With cancelOnDisconnect the client's departure cancels the sweep itself.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, sw *sweep, cancelOnDisconnect bool) {
	if cancelOnDisconnect {
		// Stop watching when the handler returns: the sweep outlives an
		// ordinary (asynchronous) submission's HTTP exchange.
		stop := context.AfterFunc(r.Context(), func() {
			sw.cancel(fmt.Errorf("sweep %s cancelled: submitting client disconnected", sw.id))
		})
		defer stop()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	for {
		points, done, changed := sw.next(sent)
		for _, p := range points {
			if err := enc.Encode(p); err != nil {
				return // client gone
			}
		}
		sent += len(points)
		if len(points) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleResult serves GET /results/{key}: the store's cached result for the
// key, from the local tiers only (memory and disk — peers are never
// consulted, so fleet nodes asking each other cannot cascade). This is the
// serving half of the fleet-wide cache; internal/remote.PeerSource is the
// asking half.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key, err := url.PathUnescape(r.PathValue("key"))
	if err != nil || key == "" {
		s.httpError(w, r, http.StatusBadRequest, codedf(CodeInvalidParam, "bad result key"))
		return
	}
	st := s.engine.Store
	if st == nil {
		s.httpError(w, r, http.StatusNotFound, errors.New("this daemon has no result store"))
		return
	}
	res, ok := st.Get(key)
	if !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("no cached result for key %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, res)
}

// handleExecute serves POST /execute: one job encoded by EncodeJob, run
// through this node's engine and store — never dispatched to this node's own
// fleet, so a fleet stays one level deep — and its result returned as JSON.
// Simulations beyond the engine's Workers bound queue for a slot, and
// cancelling the request cancels the simulation at its next task boundary.
// The status classifies a failure for the dispatching coordinator: 400 for
// an unreadable or undecodable job, 422 when the point itself failed (a
// permanent error: another worker would fail it the same way).
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	outcome := func(o string) {
		s.met.executeRequests.With(o).Inc()
		s.met.executeSeconds.Observe(s.now().Sub(start).Seconds())
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBytes))
	if err != nil {
		outcome("bad_request")
		s.httpError(w, r, http.StatusBadRequest, coded(CodeInvalidBody, fmt.Errorf("read job: %w", err)))
		return
	}
	j, err := DecodeJob(data)
	if err != nil {
		outcome("bad_request")
		s.httpError(w, r, http.StatusBadRequest, coded(CodeInvalidBody, err))
		return
	}
	res, err := s.engine.RunContext(r.Context(), j)
	if err != nil {
		if r.Context().Err() != nil {
			outcome("abandoned")
		} else {
			outcome("failed")
		}
		s.httpError(w, r, http.StatusUnprocessableEntity, coded(CodePointFailed, err))
		return
	}
	outcome("ok")
	s.log().Info("point executed",
		"req", requestID(r.Context()), "point", j.Desc(), "elapsed", s.now().Sub(start))
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, res)
}

// handleNotFound serves every path outside the registered API surface with
// the standard error envelope. The pre-/v1 unprefixed routes land here too;
// the detail points migrating clients at the versioned prefix.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.httpError(w, r, http.StatusNotFound, &apiError{
		code:   CodeNotFound,
		detail: "the API is served under /v1 (e.g. /v1/sweeps); /healthz and /metrics are unversioned",
		err:    fmt.Errorf("no route for %s %s", r.Method, r.URL.Path),
	})
}

// handleHealth serves GET /healthz. The response schema:
//
//	{
//	  "ok": true,            // false (and 503) while draining
//	  "draining": false,
//	  "sweeps": 3,           // retained sweeps (running + finished)
//	  "active_sweeps": 1,    // sweeps still running
//	  "queue_depth": 42,     // unsettled points of running sweeps
//	  "workers": 2,          // registered fleet workers (the local one is not counted)
//	  "tenants": 1           // known tenants (configured or submitting)
//	}
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	n := len(s.sweeps)
	nWorkers := len(s.workers)
	s.mu.Unlock()
	tenants := s.Tenants()
	active, depth := load(tenants)
	w.Header().Set("Content-Type", "application/json")
	if draining {
		// The healthz body is its own documented schema, not the API error
		// envelope: probes read {"ok":false}, not a catalog code.
		w.WriteHeader(http.StatusServiceUnavailable) //simlint:allow apienvelope — healthz serves its documented schema, not the error envelope
	}
	writeJSON(w, map[string]any{
		"ok":            !draining,
		"draining":      draining,
		"sweeps":        n,
		"active_sweeps": active,
		"queue_depth":   depth,
		"workers":       nWorkers,
		"tenants":       len(tenants),
	})
}

// httpError writes the uniform error envelope with the status code and logs
// the error — previously these errors vanished into the response body —
// keyed by the request's correlation ID. Handlers attach a catalog code via
// coded/codedf; errors without one fall back to a status-derived code.
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, code int, err error) {
	resp := envelope(code, err)
	s.log().Warn("request failed",
		"req", requestID(r.Context()), "method", r.Method, "path", r.URL.Path,
		"status", code, "code", resp.Code, "err", err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeJSON(w, resp)
}

// writeJSON best-effort encodes v; the connection may already be gone.
func writeJSON(w http.ResponseWriter, v any) {
	_ = json.NewEncoder(w).Encode(v)
}

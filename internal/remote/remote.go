// Package remote moves simulation points over HTTP: it owns both ends of
// the wire protocol between a sweep coordinator and its worker fleet.
//
// A worker (sweepd -worker) mounts Worker.Handler, which accepts one
// encoded job per POST /execute request, runs it on the worker's engine —
// deduplicating against the worker's own store, bounded by the engine's
// Workers — and returns the result as JSON. Executor is the client half: it
// implements runner.Executor against one worker, so a coordinator registers
// it as one worker of its fleet, next to its own engine, the in-process
// runner.Executor.
//
// Jobs travel as JSON using the existing codecs: replay programs are
// embedded in their versioned task.MarshalProgram form, and grids are
// submitted with the same request schema the service accepts. Job mutations
// (Job.Mutate) are Go closures and cannot cross the wire; encoding such a
// job fails loudly rather than silently dropping the mutation. Results
// travel as core.Result JSON, a few kilobytes without the program; a
// decoded result counts only when core.Result.Complete holds, and unknown
// fields (the program older workers and peers still send) are ignored.
//
// Failures are classified for the dispatcher: a point that is itself broken
// (unknown benchmark, simulation error) comes back as a permanent error,
// while transport failures — the worker died, the connection dropped, the
// response was garbage — are wrapped with runner.Transient so the
// coordinator requeues the point on another worker instead of failing the
// sweep.
package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/task"
	"repro/internal/taskrt"
)

// maxJobBytes bounds one POST /execute body; replay programs dominate and
// stay far below this.
const maxJobBytes = 1 << 28

// wireJob is the serialized form of a runner.Job.
type wireJob struct {
	Benchmark   string `json:"benchmark"`
	Runtime     string `json:"runtime"`
	Scheduler   string `json:"scheduler,omitempty"`
	Cores       int    `json:"cores,omitempty"`
	Granularity int64  `json:"granularity,omitempty"`
	Label       string `json:"label,omitempty"`
	// Program carries a replay program in its versioned codec form
	// (task.MarshalProgram), so replayed points content-address on the
	// worker exactly as they do locally.
	Program json.RawMessage `json:"program,omitempty"`
}

// EncodeJob serializes a job for transport. Jobs carrying a Mutate closure
// cannot be encoded: a mutation is arbitrary Go code, and dropping it would
// silently simulate a different point than the key promises.
func EncodeJob(j runner.Job) ([]byte, error) {
	if j.Mutate != nil {
		return nil, errors.New("remote: job with a Mutate closure cannot be executed remotely")
	}
	w := wireJob{
		Benchmark:   j.Benchmark,
		Runtime:     string(j.Runtime),
		Scheduler:   j.Scheduler,
		Cores:       j.Cores,
		Granularity: j.Granularity,
		Label:       j.Label,
	}
	if j.Program != nil {
		prog, err := task.MarshalProgram(j.Program)
		if err != nil {
			return nil, fmt.Errorf("remote: encode job program: %w", err)
		}
		w.Program = prog
	}
	return json.Marshal(w)
}

// DecodeJob deserializes a job encoded by EncodeJob.
func DecodeJob(data []byte) (runner.Job, error) {
	var w wireJob
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return runner.Job{}, fmt.Errorf("remote: decode job: %w", err)
	}
	kind := taskrt.Kind(w.Runtime)
	known := false
	for _, k := range taskrt.Kinds() {
		if k == kind {
			known = true
			break
		}
	}
	if !known {
		return runner.Job{}, fmt.Errorf("remote: unknown runtime %q (known: %v)", w.Runtime, taskrt.Kinds())
	}
	j := runner.Job{
		Benchmark:   w.Benchmark,
		Runtime:     kind,
		Scheduler:   w.Scheduler,
		Cores:       w.Cores,
		Granularity: w.Granularity,
		Label:       w.Label,
	}
	if len(w.Program) > 0 {
		prog, err := task.UnmarshalProgram(w.Program)
		if err != nil {
			return runner.Job{}, fmt.Errorf("remote: decode job program: %w", err)
		}
		j.Program = prog
	}
	return j, nil
}

// Worker is the serving half of the wire protocol: it executes jobs POSTed
// to /execute on its engine. The zero value plus an Engine is usable; Log and
// Metrics are optional observability hooks.
type Worker struct {
	// Engine executes the decoded jobs (sharing its store, so repeated
	// dispatches of one point to the same worker simulate once).
	Engine *runner.Engine
	// Log receives one structured line per request; nil discards.
	Log *slog.Logger
	// Metrics, when non-nil, counts and times handled requests.
	Metrics *WorkerMetrics
}

func (wk *Worker) log() *slog.Logger {
	if wk.Log != nil {
		return wk.Log
	}
	return slog.New(slog.DiscardHandler)
}

// Handler serves POST /execute: one encoded job per request, executed on the
// worker's engine, the result returned as JSON. Concurrent simulations
// beyond the engine's Workers bound queue inside the engine for an execution
// slot, so a coordinator (or several) cannot oversubscribe the worker past
// its -workers setting.
//
// Status codes classify the failure for the dispatching coordinator:
// 400 for an undecodable job, 422 when the point itself failed (a permanent
// error — retrying elsewhere would fail the same way), 200 with the result
// otherwise. Cancelling the request cancels the simulation at its next task
// boundary (or abandons the wait for a slot).
func (wk *Worker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		outcome := func(o string) {
			if wk.Metrics != nil {
				wk.Metrics.Requests.With(o).Inc()
				wk.Metrics.RequestSeconds.Observe(time.Since(start).Seconds())
			}
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBytes))
		if err != nil {
			outcome("bad_request")
			wk.log().Warn("execute: unreadable job", "err", err)
			writeError(w, http.StatusBadRequest, fmt.Errorf("read job: %w", err))
			return
		}
		j, err := DecodeJob(data)
		if err != nil {
			outcome("bad_request")
			wk.log().Warn("execute: undecodable job", "err", err)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		res, err := wk.Engine.RunContext(r.Context(), j)
		if err != nil {
			if r.Context().Err() != nil {
				outcome("abandoned")
			} else {
				outcome("failed")
			}
			wk.log().Warn("execute: point failed",
				"benchmark", j.Benchmark, "runtime", j.Runtime, "label", j.Label,
				"elapsed", time.Since(start), "err", err)
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		outcome("ok")
		wk.log().Info("execute: point done",
			"benchmark", j.Benchmark, "runtime", j.Runtime, "label", j.Label,
			"elapsed", time.Since(start))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(res)
	})
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// Executor runs jobs on one remote sweepd worker. It implements
// runner.Executor, so it plugs into a coordinator's fleet wherever the
// coordinator's own engine would have run the point.
type Executor struct {
	// URL is the worker's base URL, e.g. "http://worker-3:8080".
	URL string
	// Client is the HTTP client; nil uses http.DefaultClient. Simulations
	// can legitimately run for minutes, so any client timeout must cover
	// the slowest expected point — cancellation is the context's job.
	Client *http.Client
	// Metrics, when non-nil, counts and times dispatches under this
	// executor's URL label. Share one Metrics across a fleet's executors.
	Metrics *Metrics
}

// NewExecutor returns an executor for the worker at base URL.
func NewExecutor(url string) *Executor {
	return &Executor{URL: strings.TrimRight(url, "/")}
}

func (e *Executor) client() *http.Client {
	if e.Client != nil {
		return e.Client
	}
	return http.DefaultClient
}

// Execute runs one job on the worker. Transport failures come back wrapped
// with runner.Transient; a 422 from the worker (the point itself failed) and
// context cancellation do not.
func (e *Executor) Execute(ctx context.Context, j runner.Job) (*core.Result, error) {
	if e.Metrics == nil {
		return e.execute(ctx, j)
	}
	e.Metrics.Dispatches.With(e.URL).Inc()
	start := time.Now()
	res, err := e.execute(ctx, j)
	e.Metrics.DispatchSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		e.Metrics.Errors.With(e.URL, dispatchClass(err)).Inc()
	}
	return res, err
}

func (e *Executor) execute(ctx context.Context, j runner.Job) (*core.Result, error) {
	data, err := EncodeJob(j)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(e.URL, "/")+"/execute", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The request died with our own context, not the worker.
			return nil, context.Cause(ctx)
		}
		return nil, runner.Transient(fmt.Errorf("remote: worker %s: %w", e.URL, err))
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var res core.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			// A truncated or foreign response is a channel failure, not a
			// verdict on the point. Wrapping with %w keeps the decode error
			// visible to errors.Is/As through the Transient classification.
			return nil, runner.Transient(fmt.Errorf("remote: worker %s returned an unparsable result: %w", e.URL, err))
		}
		if !res.Complete() {
			return nil, runner.Transient(fmt.Errorf("remote: worker %s returned an incomplete result", e.URL))
		}
		return &res, nil
	case http.StatusUnprocessableEntity:
		return nil, fmt.Errorf("remote: %s", readError(resp.Body))
	case http.StatusBadRequest:
		// The worker rejected the job encoding itself — deterministic for
		// this job, so retrying on another (same-version) worker would
		// fail identically.
		return nil, fmt.Errorf("remote: worker %s rejected the job: %s", e.URL, readError(resp.Body))
	default:
		return nil, runner.Transient(fmt.Errorf("remote: worker %s: status %d: %s", e.URL, resp.StatusCode, readError(resp.Body)))
	}
}

// readError extracts the {"error": ...} body written by writeError (or the
// service's error helper), falling back to the raw body.
func readError(r io.Reader) string {
	data, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil {
		return err.Error()
	}
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		return body.Error
	}
	return strings.TrimSpace(string(data))
}

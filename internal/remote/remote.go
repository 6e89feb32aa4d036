// Package remote holds the client half of the fleet protocol: the requests
// one sweepd makes of another. Every sweepd serves the other half from
// internal/service, so any node can be a worker or a peer of any other.
//
// Executor implements runner.Executor against one node's POST /execute, so
// a coordinator registers it as one worker of its fleet, next to its own
// engine, the in-process runner.Executor. Jobs travel as service.EncodeJob
// writes them: grid coordinates only, since a DMU override or a replay
// program cannot cross the wire. Results travel as core.Result JSON, a few
// kilobytes without the program; a decoded result counts only when
// core.Result.Complete holds, and unknown fields (the program older workers
// and peers still send) are ignored. PeerSource is the store's peer tier
// over GET /v1/results/{key}, and Client submits whole sweeps.
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
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/service"
)

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
		e.Metrics.Errors.With(e.URL, runner.ErrorClass(err)).Inc()
	}
	return res, err
}

func (e *Executor) execute(ctx context.Context, j runner.Job) (*core.Result, error) {
	data, err := service.EncodeJob(j)
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

// readError extracts the "error" field of the service's error envelope
// (older workers wrote the same field), falling back to the raw body.
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

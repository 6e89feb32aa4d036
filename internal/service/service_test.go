package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/taskrt"
)

// testServer returns a service over a small, fast engine and its HTTP test
// host.
func testServer(t *testing.T, store *runner.Store) (*Server, *httptest.Server) {
	t.Helper()
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = base.Machine.WithCores(8)
	if store == nil {
		store = runner.NewStore()
	}
	srv := New(&runner.Engine{Base: base, Store: store}, 2)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, r io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState polls the status endpoint until the sweep reaches a terminal
// state.
func waitState(t *testing.T, url string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[Status](t, resp.Body)
		resp.Body.Close()
		if st.State != StateRunning {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("sweep did not reach a terminal state")
	return Status{}
}

func TestSubmitStatusStream(t *testing.T) {
	_, ts := testServer(t, nil)

	resp := postJSON(t, ts.URL+"/v1/sweeps", `{
		"benchmarks": ["synth:chain:width=4,depth=4,mean=5", "histogram"],
		"runtimes": ["software", "tdm"],
		"schedulers": ["fifo"]
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	if sub.Jobs != 4 {
		t.Fatalf("grid expanded to %d jobs, want 4", sub.Jobs)
	}

	st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
	if st.State != StateDone || st.Completed != 4 || st.Failed != 0 {
		t.Fatalf("terminal status = %+v", st)
	}
	if st.Finished.IsZero() || st.Submitted.IsZero() {
		t.Errorf("status missing timestamps: %+v", st)
	}

	// The stream replays every point as one JSON object per line.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	seen := make(map[int]bool)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if p.Error != "" {
			t.Errorf("point %d failed: %s", p.Index, p.Error)
		}
		if p.Cycles <= 0 || p.Tasks <= 0 || p.Key == "" {
			t.Errorf("implausible point %+v", p)
		}
		seen[p.Index] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("stream delivered %d distinct points, want 4", len(seen))
	}

	// The listing shows the sweep.
	resp, err = http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]Status](t, resp.Body)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("listing = %+v", list)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, nil)
	for _, body := range []string{
		`{"benchmarks": ["no-such-benchmark"]}`,
		`{"benchmarks": ["synth:chain:widht=8"]}`,
		`{"benchmarks": ["synth:chain:fanout=2"]}`,
		`{"runtimes": ["no-such-runtime"]}`,
		`{"schedulers": ["no-such-policy"]}`,
		`{"cores": [-1]}`,
		`{"granularities": [-5]}`,
		`{"bogus_field": 1}`,
		`not json`,
	} {
		resp := postJSON(t, ts.URL+"/v1/sweeps", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%s) status = %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/s9999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// bigGridBody expands to enough medium-sized points that a sweep cannot
// finish before the test cancels it.
const bigGridBody = `{
	"benchmarks": ["synth:layered:width=16,depth=60,mean=20"],
	"runtimes": ["software", "tdm"],
	"schedulers": ["fifo", "lifo", "locality", "successor", "age"],
	"cores": [8, 16, 32]
}`

func TestCancelEndpointStopsSweep(t *testing.T) {
	_, ts := testServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/sweeps", bigGridBody)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	if sub.Jobs != 30 {
		t.Fatalf("grid expanded to %d jobs, want 30", sub.Jobs)
	}

	resp = postJSON(t, ts.URL+"/v1/sweeps/"+sub.ID+"/cancel", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
	if st.State != StateCancelled {
		t.Fatalf("state after cancel = %s", st.State)
	}
	if st.Completed+st.Failed >= st.Total {
		t.Errorf("cancelled sweep still ran all %d points", st.Total)
	}
	// Points stopped by the cancellation are not failures.
	if st.Failed != 0 {
		t.Errorf("cancelled points counted as failures: %+v", st)
	}
}

func TestStreamSubmitCancelsOnDisconnect(t *testing.T) {
	srv, ts := testServer(t, nil)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/sweeps?stream=1", strings.NewReader(bigGridBody))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one streamed point, then drop the connection mid-sweep.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("stream produced no points: %v", sc.Err())
	}
	var first Point
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The server notices the disconnect and cancels the sweep.
	srv.mu.Lock()
	id := srv.order[0]
	srv.mu.Unlock()
	st := waitState(t, ts.URL+"/v1/sweeps/"+id)
	if st.State != StateCancelled {
		t.Fatalf("state after client disconnect = %s", st.State)
	}
	if st.Completed+st.Failed >= st.Total {
		t.Errorf("disconnected sweep still ran all %d points", st.Total)
	}
}

func TestDrainRejectsAndCancels(t *testing.T) {
	srv, ts := testServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/sweeps", bigGridBody)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()

	done := make(chan struct{})
	go func() {
		srv.Drain(fmt.Errorf("test drain"))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return")
	}

	// The sweep was cancelled mid-run and its state settled before Drain
	// returned — the daemon can exit without losing the final state.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	st := decode[Status](t, resp.Body)
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("state after drain = %s", st.State)
	}
	if st.Completed+st.Failed >= st.Total {
		t.Errorf("drained sweep still ran all %d points", st.Total)
	}
	// A routine drain must not look like failures to monitoring.
	if st.Failed != 0 {
		t.Errorf("drain counted cancelled points as failures: %+v", st)
	}

	// New submissions are rejected while draining.
	resp = postJSON(t, ts.URL+"/v1/sweeps", `{"benchmarks":["histogram"],"runtimes":["software"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSweepsShareDiskStore: a point computed by one sweep is a warm cache hit
// for the next (and for a daemon restart over the same directory).
func TestSweepsShareDiskStore(t *testing.T) {
	dir := t.TempDir()
	store, err := runner.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, store)
	body := `{"benchmarks":["histogram"],"runtimes":["software","tdm"]}`

	resp := postJSON(t, ts.URL+"/v1/sweeps", body)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	first := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
	if first.State != StateDone || first.Completed != 2 {
		t.Fatalf("first sweep = %+v", first)
	}

	// A second service over a fresh store on the same directory simulates
	// nothing: both points come back warm from disk.
	resumed, err := runner.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = base.Machine.WithCores(8)
	srv2 := New(&runner.Engine{Base: base, Store: resumed, Log: &log}, 2)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp = postJSON(t, ts2.URL+"/v1/sweeps", body)
	sub2 := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	second := waitState(t, ts2.URL+"/v1/sweeps/"+sub2.ID)
	if second.State != StateDone || second.Completed != 2 {
		t.Fatalf("resumed sweep = %+v", second)
	}
	if strings.Contains(log.String(), "running") {
		t.Errorf("restart re-simulated persisted points:\n%s", log.String())
	}
}

// TestStreamFalseSubmitsAsync: ?stream=0 (and =false) is an asynchronous
// submission, not a cancel-on-disconnect stream.
func TestStreamFalseSubmitsAsync(t *testing.T) {
	_, ts := testServer(t, nil)
	for _, q := range []string{"?stream=0", "?stream=false", ""} {
		resp := postJSON(t, ts.URL+"/v1/sweeps"+q, `{"benchmarks":["histogram"],"runtimes":["software"]}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("submit with %q status = %d, want 202", q, resp.StatusCode)
		}
		sub := decode[SubmitResponse](t, resp.Body)
		resp.Body.Close()
		// Closing the submission response must not cancel the sweep.
		if st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID); st.State != StateDone {
			t.Errorf("async submission with %q ended %s, want done", q, st.State)
		}
	}
}

// TestFinishedSweepEviction: the daemon caps retained finished sweeps so
// unattended operation does not grow memory without bound.
func TestFinishedSweepEviction(t *testing.T) {
	srv, ts := testServer(t, nil)
	srv.maxRetained = 1
	body := `{"benchmarks":["synth:chain:width=2,depth=2,mean=5"],"runtimes":["software"]}`
	var ids []string
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/sweeps", body)
		sub := decode[SubmitResponse](t, resp.Body)
		resp.Body.Close()
		waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
		ids = append(ids, sub.ID)
	}
	// Eviction runs as the sweep goroutine settles; give the last one a
	// beat to finish its bookkeeping.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.sweeps)
		srv.mu.Unlock()
		if n <= 1 || time.Now().After(deadline) {
			if n > 1 {
				t.Fatalf("%d finished sweeps retained, want <= 1", n)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The newest sweep survives; the oldest is gone.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted sweep still queryable: %d", resp.StatusCode)
	}
}

// TestSubmitBodyTooLarge: an oversized submission body is rejected with 413
// before any decoding happens.
func TestSubmitBodyTooLarge(t *testing.T) {
	srv, ts := testServer(t, nil)
	srv.MaxBodyBytes = 256
	body := `{"benchmarks":["histogram"],"schedulers":["fifo","` + strings.Repeat("x", 512) + `"]}`
	resp := postJSON(t, ts.URL+"/v1/sweeps", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission = %d, want 413", resp.StatusCode)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.order) != 0 {
		t.Error("rejected submission registered a sweep")
	}
}

// TestSubmitTooManyPoints: a small body describing a combinatorially huge
// grid is rejected with 400 before the expansion is allocated.
func TestSubmitTooManyPoints(t *testing.T) {
	srv, ts := testServer(t, nil)
	srv.MaxPoints = 10
	resp := postJSON(t, ts.URL+"/v1/sweeps", `{
		"benchmarks": ["histogram", "cholesky"],
		"runtimes": ["software", "tdm"],
		"schedulers": ["fifo", "lifo"],
		"cores": [4, 8, 16]
	}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized grid = %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "24 points") || !strings.Contains(body.Error, "10") {
		t.Errorf("error does not name the expansion and the limit: %q", body.Error)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.order) != 0 {
		t.Error("rejected grid registered a sweep")
	}
}

// TestStreamParamMalformed: a stream value ParseBool rejects must be a 400,
// not a silent asynchronous submission the client believes it is following.
func TestStreamParamMalformed(t *testing.T) {
	srv, ts := testServer(t, nil)
	for _, q := range []string{"?stream=yes", "?stream=y", "?stream=on", "?stream=2"} {
		resp := postJSON(t, ts.URL+"/v1/sweeps"+q, `{"benchmarks":["histogram"],"runtimes":["software"]}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit with %q status = %d, want 400", q, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Nothing was submitted: the validation runs before the sweep starts.
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.order) != 0 {
		t.Errorf("malformed stream values still submitted %d sweeps", len(srv.order))
	}
}

// TestStreamFinishedSweep: streaming a sweep that already finished replays
// the full point log and terminates immediately instead of hanging.
func TestStreamFinishedSweep(t *testing.T) {
	_, ts := testServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/sweeps", `{"benchmarks":["histogram"],"runtimes":["software","tdm"]}`)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	if st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID); st.State != StateDone {
		t.Fatalf("sweep ended %s", st.State)
	}

	// The sweep is terminal; the stream must replay everything and close on
	// its own, well before the watchdog.
	done := make(chan []Point, 1)
	go func() { done <- streamPoints(t, ts.URL+"/v1/sweeps/"+sub.ID+"/stream") }()
	select {
	case points := <-done:
		if len(points) != 2 {
			t.Fatalf("finished sweep replayed %d points, want 2", len(points))
		}
		seen := map[int]bool{}
		for _, p := range points {
			if p.Error != "" || p.Cycles <= 0 {
				t.Errorf("implausible replayed point %+v", p)
			}
			seen[p.Index] = true
		}
		if !seen[0] || !seen[1] {
			t.Errorf("replay missed points: %+v", points)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream of a finished sweep did not terminate")
	}
}

// TestEvictRetentionOrdering: eviction drops the oldest *finished* sweeps
// first and never touches running ones, regardless of interleaving.
func TestEvictRetentionOrdering(t *testing.T) {
	srv := New(&runner.Engine{Base: core.DefaultConfig(taskrt.Software), Store: runner.NewStore()}, 1)
	srv.maxRetained = 2
	noCancel := func(error) {}
	add := func(id string, state State) {
		sw := newSweep(id, DefaultTenant, nil, noCancel, srv.now())
		if state != StateRunning {
			sw.finish(state, srv.now())
		}
		srv.sweeps[id] = sw
		srv.order = append(srv.order, id)
	}
	// Submission order interleaves running and terminal sweeps.
	add("s1", StateDone)
	add("s2", StateRunning)
	add("s3", StateCancelled)
	add("s4", StateRunning)
	add("s5", StateDone)
	add("s6", StateDone)

	srv.evict()

	want := []string{"s2", "s4", "s5", "s6"} // 4 finished - cap 2 = drop s1, s3 (oldest finished)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.order) != len(want) {
		t.Fatalf("retained %v, want %v", srv.order, want)
	}
	for i, id := range want {
		if srv.order[i] != id {
			t.Fatalf("retained %v, want %v", srv.order, want)
		}
		if _, ok := srv.sweeps[id]; !ok {
			t.Errorf("retained order lists %s but the sweep is gone", id)
		}
	}
	for _, id := range []string{"s1", "s3"} {
		if _, ok := srv.sweeps[id]; ok {
			t.Errorf("sweep %s survived eviction", id)
		}
	}
}

// TestHealthz covers the healthy half of the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	body := decode[map[string]any](t, resp.Body)
	if body["ok"] != true {
		t.Errorf("healthz body = %v", body)
	}
	// The liveness schema: queue depth, active sweeps and fleet size ride
	// along for probes that want one cheap endpoint.
	for _, key := range []string{"draining", "sweeps", "active_sweeps", "queue_depth", "workers"} {
		if _, ok := body[key]; !ok {
			t.Errorf("healthz body missing %q: %v", key, body)
		}
	}
}

// TestExecuteEndpoint pins POST /execute, the worker half of the fleet
// protocol every node serves: 200 with the result for a good job, 400
// invalid_body for an unreadable, oversized or undecodable one, 422
// point_failed when the point itself fails, and one
// remote_worker_requests_total count per request by outcome.
func TestExecuteEndpoint(t *testing.T) {
	srv, ts := testServer(t, nil)
	job := runner.Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: "fifo"}
	body, err := EncodeJob(job)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/execute", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good job: status %d", resp.StatusCode)
	}
	got := decode[core.Result](t, resp.Body)
	resp.Body.Close()
	want, err := job.Run(srv.engine.Base)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Complete() || got.Cycles != want.Cycles {
		t.Errorf("executed point = %d cycles (complete %v), want %d", got.Cycles, got.Complete(), want.Cycles)
	}

	for _, tc := range []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"garbage", `not json`, http.StatusBadRequest, CodeInvalidBody},
		{"oversized", `{"benchmark":"` + strings.Repeat("x", 100<<10) + `","runtime":"software"}`,
			http.StatusBadRequest, CodeInvalidBody},
		{"broken point", `{"benchmark":"no-such-benchmark","runtime":"software"}`,
			http.StatusUnprocessableEntity, CodePointFailed},
	} {
		resp := postJSON(t, ts.URL+"/execute", tc.body)
		er := decode[ErrorResponse](t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus || er.Code != tc.wantCode {
			t.Errorf("%s: status %d code %q, want %d %q", tc.name, resp.StatusCode, er.Code, tc.wantStatus, tc.wantCode)
		}
		if len(er.Error) > 1024 {
			t.Errorf("%s: error message is %d bytes long", tc.name, len(er.Error))
		}
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	text, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`remote_worker_requests_total{outcome="ok"} 1`,
		`remote_worker_requests_total{outcome="bad_request"} 2`,
		`remote_worker_requests_total{outcome="failed"} 1`,
		"remote_worker_request_seconds_count 4",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, nil)
	// Finished sweeps populate the service counters before the scrape. The
	// second submission of the one-point sweep is a memory hit: it settles a
	// row but executes nothing, so the simulation telemetry counts the point
	// once.
	for range 2 {
		resp := postJSON(t, ts.URL+"/v1/sweeps?stream=1", `{"benchmarks":["synth:blockdense:width=2,mean=200"],"runtimes":["tdm"]}`)
		_, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", mr.StatusCode)
	}
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	text, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	// One scrape covers every layer: service lifecycle, the engine and its
	// store, and the simulated task-latency distributions.
	for _, want := range []string{
		"# TYPE service_sweeps_submitted_total counter",
		"service_sweeps_submitted_total 2",
		"# TYPE service_sweeps_active gauge",
		"# TYPE service_dispatch_queue_depth gauge",
		"# TYPE service_workers_registered gauge",
		"# TYPE service_points_completed_total counter",
		`service_points_completed_total{outcome="ok"} 2`,
		"# TYPE service_submit_to_first_row_seconds histogram",
		"# TYPE runner_execs_total counter",
		"runner_execs_total 1",
		"# TYPE store_misses_total counter",
		`store_hits_total{source="mem"} 1`,
		"# TYPE sim_task_latency_cycles histogram",
		`sim_task_latency_cycles_count{quantile="p50"} 1`,
		"# TYPE sim_dmu_occupancy_entries histogram",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestSweepMatchesSubmit: Server.Sweep is POST /v1/sweeps without the HTTP.
// A bad request gets the error the route's envelope carries, and a good
// one returns the rows the route streams.
func TestSweepMatchesSubmit(t *testing.T) {
	srv, ts := testServer(t, nil)
	srv.MaxPoints = 4
	for _, body := range []string{
		`{"benchmarks": ["no-such-benchmark"]}`,
		`{"benchmarks": ["histogram"], "runtimes": ["vaporware"]}`,
		`{"benchmarks": ["histogram"], "cores": [1, 2, 3, 4, 5]}`,
		`{"benchmarks": ["histogram"], "tenant": "no/slashes"}`,
		`{"benchmarks": ["histogram"], "search": {"objective": "min:vibes"}}`,
	} {
		var req SubmitRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/sweeps", body)
		want := decode[ErrorResponse](t, resp.Body)
		resp.Body.Close()
		if _, err := srv.Sweep(context.Background(), req); err == nil {
			t.Errorf("Sweep(%s) accepted a request the route rejects with %+v", body, want)
		} else if got := envelope(resp.StatusCode, err); got != want {
			t.Errorf("Sweep(%s) error %+v, the route's %+v", body, got, want)
		}
	}

	body := `{"benchmarks": ["histogram"], "runtimes": ["software", "tdm"]}`
	var req SubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	rows, err := srv.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/sweeps?stream=1", body)
	defer resp.Body.Close()
	var streamed []Point
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, p)
	}
	byIndex := func(ps []Point) func(i, j int) bool {
		return func(i, j int) bool { return ps[i].Index < ps[j].Index }
	}
	sort.Slice(rows, byIndex(rows))
	sort.Slice(streamed, byIndex(streamed))
	if len(rows) != 2 || !reflect.DeepEqual(rows, streamed) {
		t.Errorf("Sweep rows differ from the streamed rows:\nSweep:  %+v\nstream: %+v", rows, streamed)
	}

	srv.Drain(nil)
	resp = postJSON(t, ts.URL+"/v1/sweeps", body)
	want := decode[ErrorResponse](t, resp.Body)
	resp.Body.Close()
	if _, err := srv.Sweep(context.Background(), req); err == nil || envelope(resp.StatusCode, err) != want {
		t.Errorf("Sweep on a draining server returned %v, the route %+v", err, want)
	}
}

// TestSweepCancelledContext: cancelling Sweep's context cancels the sweep,
// here one whose points would otherwise block forever, and Sweep returns
// the context's cause.
func TestSweepCancelledContext(t *testing.T) {
	srv, _, _ := gatedServer(t)
	ctx, cancel := context.WithCancelCause(context.Background())
	stop := errors.New("caller gave up")
	cancel(stop)
	rows, err := srv.Sweep(ctx, SubmitRequest{Benchmarks: []string{"histogram"}, Runtimes: []string{"software"}})
	if !errors.Is(err, stop) {
		t.Fatalf("Sweep under a cancelled context = %v, want its cause", err)
	}
	for _, p := range rows {
		if !p.Cancelled {
			t.Errorf("row settled despite the cancellation: %+v", p)
		}
	}
	srv.mu.Lock()
	sw := srv.sweeps[srv.order[0]]
	srv.mu.Unlock()
	if st := sw.status(); st.State != StateCancelled {
		t.Errorf("sweep state = %s, want cancelled", st.State)
	}
}

package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/taskrt"
)

// fakeWorker is an in-process stand-in for a remote sweepd worker: it
// simulates points locally, optionally dying (permanent transient failures)
// after a number of executions.
type fakeWorker struct {
	base core.Config
	// delay throttles each execution so dispatch spreads points across
	// workers deterministically enough to assert on.
	delay time.Duration

	mu       sync.Mutex
	executed int
	// dieAfter < 0 never dies; otherwise every call past the first
	// dieAfter executions fails with a transient error.
	dieAfter int
}

func (f *fakeWorker) Execute(ctx context.Context, j runner.Job) (*core.Result, error) {
	f.mu.Lock()
	if f.dieAfter >= 0 && f.executed >= f.dieAfter {
		f.mu.Unlock()
		return nil, runner.Transient(errors.New("worker killed"))
	}
	f.executed++
	f.mu.Unlock()
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return j.RunContext(ctx, f.base)
}

func (f *fakeWorker) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.executed
}

// streamPoints replays a finished sweep's NDJSON stream.
func streamPoints(t *testing.T, url string) []Point {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var points []Point
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		points = append(points, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return points
}

const shardGridBody = `{
	"benchmarks": ["synth:chain:width=4,depth=4,mean=5", "histogram"],
	"runtimes": ["software", "tdm"],
	"schedulers": ["fifo", "lifo"]
}`

// TestShardedSweepCompletes: with workers registered, a sweep shards across
// the fleet, every point lands exactly once, and the results match an
// in-process run of the same grid.
func TestShardedSweepCompletes(t *testing.T) {
	srv, ts := testServer(t, nil)
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = base.Machine.WithCores(8)
	wa := &fakeWorker{base: base, dieAfter: -1, delay: 5 * time.Millisecond}
	wb := &fakeWorker{base: base, dieAfter: -1, delay: 5 * time.Millisecond}
	srv.RegisterWorker("http://worker-a", wa, 2)
	srv.RegisterWorker("http://worker-b", wb, 2)

	resp := postJSON(t, ts.URL+"/v1/sweeps", shardGridBody)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	if sub.Jobs != 8 {
		t.Fatalf("grid expanded to %d jobs, want 8", sub.Jobs)
	}
	st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
	if st.State != StateDone || st.Completed != 8 || st.Failed != 0 {
		t.Fatalf("sharded sweep = %+v", st)
	}

	// Both workers pulled work, and together they executed every point.
	if wa.count() == 0 || wb.count() == 0 {
		t.Errorf("pull dispatch starved a worker: a=%d b=%d", wa.count(), wb.count())
	}
	if wa.count()+wb.count() != 8 {
		t.Errorf("fleet executed %d points, want 8 (no double dispatch)", wa.count()+wb.count())
	}

	// The streamed results are exactly what an in-process engine computes.
	jobs := decodeGrid(t, shardGridBody)
	engine := &runner.Engine{Base: base, Store: runner.NewStore()}
	want, err := engine.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	points := streamPoints(t, ts.URL+"/v1/sweeps/"+sub.ID+"/stream")
	if len(points) != 8 {
		t.Fatalf("stream replayed %d points, want 8", len(points))
	}
	for _, p := range points {
		if p.Cycles != want[p.Index].Cycles {
			t.Errorf("point %d: sharded %d cycles, local %d", p.Index, p.Cycles, want[p.Index].Cycles)
		}
	}

	// The fleet listing reflects the work.
	infos := srv.Workers()
	if len(infos) != 2 || infos[0].Points+infos[1].Points != 8 {
		t.Errorf("worker listing = %+v", infos)
	}
}

// decodeGrid expands a submission body the way the handler does.
func decodeGrid(t *testing.T, body string) []runner.Job {
	t.Helper()
	var req SubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	grid, err := req.grid()
	if err != nil {
		t.Fatal(err)
	}
	return grid.Jobs()
}

// TestWorkerDeathRequeues: a worker dying mid-sweep loses no points — its
// in-flight and queued points requeue onto the survivor and the sweep
// completes cleanly.
func TestWorkerDeathRequeues(t *testing.T) {
	srv, ts := testServer(t, nil)
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = base.Machine.WithCores(8)
	dying := &fakeWorker{base: base, dieAfter: 1, delay: 5 * time.Millisecond}
	healthy := &fakeWorker{base: base, dieAfter: -1, delay: 5 * time.Millisecond}
	srv.RegisterWorker("http://dying", dying, 2)
	srv.RegisterWorker("http://healthy", healthy, 2)

	resp := postJSON(t, ts.URL+"/v1/sweeps", shardGridBody)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
	if st.State != StateDone || st.Completed != 8 || st.Failed != 0 {
		t.Fatalf("sweep with a dying worker = %+v", st)
	}
	if dying.count()+healthy.count() != 8 {
		t.Errorf("fleet executed %d points, want 8", dying.count()+healthy.count())
	}
	// The dead worker's failures are visible to operators.
	var sawError bool
	for _, info := range srv.Workers() {
		if info.Name == "http://dying" && info.LastError != "" {
			sawError = true
		}
	}
	if !sawError {
		t.Error("dead worker's listing shows no last_error")
	}
}

// TestAllWorkersDeadFallsBackLocal: when the whole fleet dies, the
// coordinator finishes the sweep in-process rather than abandoning it.
func TestAllWorkersDeadFallsBackLocal(t *testing.T) {
	srv, ts := testServer(t, nil)
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = base.Machine.WithCores(8)
	wa := &fakeWorker{base: base, dieAfter: 0}
	wb := &fakeWorker{base: base, dieAfter: 0}
	srv.RegisterWorker("http://dead-a", wa, 2)
	srv.RegisterWorker("http://dead-b", wb, 2)

	resp := postJSON(t, ts.URL+"/v1/sweeps", `{"benchmarks":["histogram"],"runtimes":["software","tdm"]}`)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
	if st.State != StateDone || st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("sweep over a dead fleet = %+v", st)
	}
	if wa.count() != 0 || wb.count() != 0 {
		t.Errorf("dead workers executed points: a=%d b=%d", wa.count(), wb.count())
	}
}

// TestLocalWorkerStandsBy: while a registered worker is alive, the
// coordinator's own engine runs nothing, and the local worker appears in
// neither the fleet listing nor the healthz worker count.
func TestLocalWorkerStandsBy(t *testing.T) {
	srv, ts := testServer(t, nil)
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = base.Machine.WithCores(8)
	w := &fakeWorker{base: base, dieAfter: -1, delay: 5 * time.Millisecond}
	srv.RegisterWorker("http://only", w, 1)

	resp := postJSON(t, ts.URL+"/v1/sweeps", shardGridBody)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
	if st.State != StateDone || st.Completed != 8 {
		t.Fatalf("sweep = %+v", st)
	}
	if w.count() != 8 {
		t.Errorf("registered worker executed %d points, want all 8", w.count())
	}
	if n := srv.engine.Metrics.Execs.Value(); n != 0 {
		t.Errorf("coordinator engine simulated %v points beside a live worker, want 0", n)
	}

	resp, err := http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	infos := decode[[]WorkerInfo](t, resp.Body)
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "http://only" {
		t.Errorf("worker listing = %+v, want only the registered worker", infos)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decode[map[string]any](t, resp.Body)
	resp.Body.Close()
	if health["workers"] != 1.0 {
		t.Errorf("healthz workers = %v, want 1", health["workers"])
	}
}

// TestDeadFleetConcurrentSweepsFinishLocally: with every registered worker
// dead, two sweeps running at once both finish on the local worker, whose
// dispatches count under worker="local".
func TestDeadFleetConcurrentSweepsFinishLocally(t *testing.T) {
	srv, ts := testServer(t, nil)
	dead := workerFunc(func(context.Context, runner.Job) (*core.Result, error) {
		// Fail slowly, so both sweeps are still bouncing points off the
		// dead worker when the other one starts.
		time.Sleep(20 * time.Millisecond)
		return nil, runner.Transient(errors.New("worker killed"))
	})
	srv.RegisterWorker("http://dead", dead, 2)

	var ids []string
	for _, bench := range []string{"histogram", "fluidanimate"} {
		resp := postJSON(t, ts.URL+"/v1/sweeps", `{"benchmarks":["`+bench+`"],"runtimes":["software","tdm"]}`)
		sub := decode[SubmitResponse](t, resp.Body)
		resp.Body.Close()
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		st := waitState(t, ts.URL+"/v1/sweeps/"+id)
		if st.State != StateDone || st.Completed != 2 || st.Failed != 0 {
			t.Errorf("sweep %s over a dead fleet = %+v", id, st)
		}
	}
	if n := srv.engine.Metrics.Execs.Value(); n != 4 {
		t.Errorf("coordinator engine simulated %v points, want all 4", n)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := `service_worker_points_dispatched_total{worker="local"} 4`; !strings.Contains(string(text), want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestShardedPermanentFailureNoRequeue: a point that is itself broken is
// recorded as failed without bouncing between workers.
func TestShardedPermanentFailureNoRequeue(t *testing.T) {
	srv, ts := testServer(t, nil)
	calls := 0
	var mu sync.Mutex
	broken := workerFunc(func(context.Context, runner.Job) (*core.Result, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, errors.New("simulation diverged")
	})
	srv.RegisterWorker("http://broken-sim", broken, 1)

	resp := postJSON(t, ts.URL+"/v1/sweeps", `{"benchmarks":["histogram"],"runtimes":["software"]}`)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
	if st.State != StateDone || st.Failed != 1 {
		t.Fatalf("sweep with a broken point = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("permanent failure dispatched %d times, want 1", calls)
	}
}

// workerFunc adapts a function to runner.Executor.
type workerFunc func(context.Context, runner.Job) (*core.Result, error)

func (f workerFunc) Execute(ctx context.Context, j runner.Job) (*core.Result, error) {
	return f(ctx, j)
}

// TestCancelShardedSweep: cancelling a sharded sweep stops dispatching and
// settles the cancelled state.
func TestCancelShardedSweep(t *testing.T) {
	srv, ts := testServer(t, nil)
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = base.Machine.WithCores(8)
	slow := &fakeWorker{base: base, dieAfter: -1, delay: 50 * time.Millisecond}
	srv.RegisterWorker("http://slow", slow, 1)

	resp := postJSON(t, ts.URL+"/v1/sweeps", bigGridBody)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/sweeps/"+sub.ID+"/cancel", "")
	resp.Body.Close()
	st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID)
	if st.State != StateCancelled {
		t.Fatalf("state after cancel = %s", st.State)
	}
	if st.Completed+st.Failed >= st.Total {
		t.Errorf("cancelled sharded sweep still ran all %d points", st.Total)
	}
	if st.Failed != 0 {
		t.Errorf("cancellation counted as failures: %+v", st)
	}
}

// TestWorkerRegistrationEndpoint covers PUT /workers and GET /workers.
func TestWorkerRegistrationEndpoint(t *testing.T) {
	srv, ts := testServer(t, nil)

	put := func(body string) *http.Response {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/workers", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Without a factory, dynamic registration is refused.
	resp := put(`{"url":"http://w1:8080"}`)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("registration without factory = %d, want 501", resp.StatusCode)
	}
	resp.Body.Close()

	var made []string
	srv.WorkerFactory = func(url string) runner.Executor {
		made = append(made, url)
		return workerFunc(func(context.Context, runner.Job) (*core.Result, error) {
			return nil, errors.New("unused")
		})
	}
	for _, bad := range []string{
		`{"url":"not-a-url"}`,
		`{"url":"ftp://nope"}`,
		`{"url":""}`,
		`{"url":"http://w1","slots":-1}`,
		`{"url":"http://w1","slots":100000}`,
		`{"url":"http://w1","bogus":true}`,
		`not json`,
	} {
		resp := put(bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("registration %q = %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp = put(`{"url":"http://w1:8080/","slots":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registration = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if len(made) != 1 || made[0] != "http://w1:8080" {
		t.Errorf("factory called with %v, want the normalized URL", made)
	}

	// Re-registering the same URL replaces, not duplicates.
	resp = put(`{"url":"http://w1:8080","slots":5}`)
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	infos := decode[[]WorkerInfo](t, resp.Body)
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "http://w1:8080" || infos[0].Slots != 5 {
		t.Errorf("worker listing = %+v", infos)
	}
}

// TestShardedWarmKeysNotDispatched: points already in the coordinator's
// store settle without touching the fleet.
func TestShardedWarmKeysNotDispatched(t *testing.T) {
	store := runner.NewStore()
	srv, ts := testServer(t, store)
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = base.Machine.WithCores(8)
	w := &fakeWorker{base: base, dieAfter: -1}
	srv.RegisterWorker("http://w", w, 2)

	body := `{"benchmarks":["histogram"],"runtimes":["software","tdm"]}`
	resp := postJSON(t, ts.URL+"/v1/sweeps", body)
	sub := decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	if st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID); st.Completed != 2 {
		t.Fatalf("first sweep = %+v", st)
	}
	if w.count() != 2 {
		t.Fatalf("first sweep dispatched %d points, want 2", w.count())
	}

	// The identical grid again: every key is warm on the coordinator, so
	// the fleet sees nothing.
	resp = postJSON(t, ts.URL+"/v1/sweeps", body)
	sub = decode[SubmitResponse](t, resp.Body)
	resp.Body.Close()
	if st := waitState(t, ts.URL+"/v1/sweeps/"+sub.ID); st.Completed != 2 {
		t.Fatalf("second sweep = %+v", st)
	}
	if w.count() != 2 {
		t.Errorf("warm sweep re-dispatched: worker executed %d points, want still 2", w.count())
	}
}

package remote

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/task"
	"repro/internal/taskrt"
)

func testBase() core.Config {
	cfg := core.DefaultConfig(taskrt.Software)
	cfg.Machine = cfg.Machine.WithCores(8)
	return cfg
}

// workerServer hosts a plain service node over a real engine: every sweepd
// serves POST /execute.
func workerServer(t *testing.T) *httptest.Server {
	t.Helper()
	return workerServerFor(t, &runner.Engine{Base: testBase(), Store: runner.NewStore()})
}

func workerServerFor(t *testing.T, engine *runner.Engine) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(service.New(engine, 0).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestExecutorAgainstWorker: an HTTP round trip through a worker reproduces
// the local simulation exactly.
func TestExecutorAgainstWorker(t *testing.T) {
	ts := workerServer(t)
	job := runner.Job{Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO}

	want, err := job.RunContext(context.Background(), testBase())
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewExecutor(ts.URL).Execute(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Energy.EDP != want.Energy.EDP {
		t.Errorf("remote execution diverged: %d vs %d cycles", got.Cycles, want.Cycles)
	}
	if !got.Complete() || got.TasksExecuted != want.TasksExecuted {
		t.Error("remote result lost its task counts")
	}
}

// TestExecutorErrorClassification: broken points are permanent, dead
// workers are transient, and cancellation is neither.
func TestExecutorErrorClassification(t *testing.T) {
	ts := workerServer(t)
	exec := NewExecutor(ts.URL)

	// A broken point: the worker answers 422 and the error is permanent —
	// requeueing it on another worker would fail identically.
	_, err := exec.Execute(context.Background(), runner.Job{
		Benchmark: "no-such-benchmark", Runtime: taskrt.Software, Scheduler: sched.FIFO,
	})
	if err == nil || runner.IsTransient(err) {
		t.Errorf("broken point returned %v, want a permanent error", err)
	}
	if err != nil && !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Errorf("permanent error does not identify the point: %v", err)
	}

	// A job body beyond the worker's 64 KiB bound: a 400 before anything
	// is simulated, and permanent, since the same job is too large for
	// every worker.
	_, err = exec.Execute(context.Background(), runner.Job{
		Benchmark: strings.Repeat("x", 100<<10), Runtime: taskrt.Software, Scheduler: sched.FIFO,
	})
	if err == nil || runner.IsTransient(err) || !strings.Contains(err.Error(), "too large") {
		t.Errorf("oversized job returned %v, want a permanent too-large rejection", err)
	}

	// A dead worker: transient, eligible for requeue.
	dead := NewExecutor(ts.URL)
	ts.Close()
	_, err = dead.Execute(context.Background(), runner.Job{
		Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO,
	})
	if !runner.IsTransient(err) {
		t.Errorf("dead worker returned %v, want a transient error", err)
	}

	// A worker rejecting the job encoding (400): deterministic for this
	// job, so permanent — bouncing it around the fleet cannot help.
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"remote: unknown runtime"}`))
	}))
	defer rejecting.Close()
	_, err = NewExecutor(rejecting.URL).Execute(context.Background(), runner.Job{
		Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO,
	})
	if err == nil || runner.IsTransient(err) {
		t.Errorf("job rejection returned %v, want a permanent error", err)
	}

	// A worker speaking a foreign protocol: transient (channel failure,
	// not a verdict on the point).
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("<html>proxy error</html>"))
	}))
	defer garbage.Close()
	_, err = NewExecutor(garbage.URL).Execute(context.Background(), runner.Job{
		Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO,
	})
	if !runner.IsTransient(err) {
		t.Errorf("garbage response returned %v, want a transient error", err)
	}

	// Our own cancellation: not transient, surfaces the cause.
	cause := errors.New("sweep cancelled")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer slow.Close()
	_, err = NewExecutor(slow.URL).Execute(ctx, runner.Job{
		Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO,
	})
	if !errors.Is(err, cause) || runner.IsTransient(err) {
		t.Errorf("cancelled dispatch returned %v, want the cancellation cause, non-transient", err)
	}
}

// TestExecutorResultFailuresKeepCause: a 200 with an unparsable body wraps
// the decode error with %w — errors.As must see the cause through the
// Transient classification — and a 200 with a well-formed but incomplete
// result is transient too. (Regression: the unparsable-result path once
// flattened the decode error through %v, hiding it from errors.Is/As. A
// body with a Program object but no simulation fields was once accepted.)
func TestExecutorResultFailuresKeepCause(t *testing.T) {
	job := runner.Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO}

	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("<html>proxy error</html>"))
	}))
	defer garbage.Close()
	_, err := NewExecutor(garbage.URL).Execute(context.Background(), job)
	if !runner.IsTransient(err) {
		t.Errorf("unparsable result returned %v, want a transient error", err)
	}
	var syntaxErr *json.SyntaxError
	if !errors.As(err, &syntaxErr) {
		t.Errorf("decode cause is not visible through errors.As: %v", err)
	}

	for _, body := range []string{`{}`, `{"Cycles": 42}`, `{"Cycles":42,"Program":{}}`} {
		incomplete := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(body))
		}))
		_, err = NewExecutor(incomplete.URL).Execute(context.Background(), job)
		incomplete.Close()
		if !runner.IsTransient(err) || err == nil || !strings.Contains(err.Error(), "incomplete") {
			t.Errorf("incomplete result %s returned %v, want a transient incomplete-result error", body, err)
		}
	}
}

// withProgram returns res's JSON with a "Program" object added: the shape of
// a result written or sent by an older binary.
func withProgram(t *testing.T, res *core.Result) []byte {
	t.Helper()
	b := task.NewBuilder("histogram")
	b.Task("kernel", 1000).Add()
	prog, err := json.Marshal(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	fields["Program"] = prog
	data, err = json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOlderResultsAccepted: a worker or a peer running an older binary sends
// each result with its program embedded; both decoders must still accept
// it, with unchanged cycles.
func TestOlderResultsAccepted(t *testing.T) {
	res, key := cachedResult(t)
	body := withProgram(t, res)
	older := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer older.Close()

	got, err := NewExecutor(older.URL).Execute(context.Background(),
		runner.Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO})
	if err != nil {
		t.Fatalf("worker response with a program rejected: %v", err)
	}
	if got.Cycles != res.Cycles {
		t.Errorf("worker response decoded to %d cycles, want %d", got.Cycles, res.Cycles)
	}
	got, ok := (&PeerSource{URLs: []string{older.URL}}).FetchResult(context.Background(), key)
	if !ok {
		t.Fatal("peer response with a program rejected")
	}
	if got.Cycles != res.Cycles {
		t.Errorf("peer response decoded to %d cycles, want %d", got.Cycles, res.Cycles)
	}
}

// TestCoordinatorWithRemoteExecutor: a coordinator dispatching to a
// registered remote worker reproduces the local simulation, and aliased
// points dedup through the coordinator's store instead of re-dispatching.
func TestCoordinatorWithRemoteExecutor(t *testing.T) {
	// A storeless worker re-simulates every dispatch, so its exec count is
	// the coordinator's dispatch count.
	workerEngine := &runner.Engine{Base: testBase(), Metrics: runner.NewEngineMetrics(obs.NewRegistry())}
	ts := workerServerFor(t, workerEngine)
	srv := service.New(&runner.Engine{Base: testBase(), Store: runner.NewStore()}, 2)
	srv.RegisterWorker(ts.URL, NewExecutor(ts.URL), 2)
	coord := httptest.NewServer(srv.Handler())
	defer coord.Close()

	// The benchmark is listed twice: points 2 and 3 alias points 0 and 1.
	req := service.SubmitRequest{
		Benchmarks: []string{"histogram", "histogram"},
		Runtimes:   []string{"software", "tdm"},
	}
	got, err := (&Client{URL: coord.URL}).Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	jobs := runner.Grid{
		Benchmarks: req.Benchmarks,
		Runtimes:   []taskrt.Kind{taskrt.Software, taskrt.TDM},
	}.Jobs()
	want, err := (&runner.Engine{Base: testBase(), Store: runner.NewStore()}).RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("sweep streamed %d points, want %d", len(got), len(jobs))
	}
	byIndex := make(map[int]service.Point)
	for _, p := range got {
		if p.Error != "" {
			t.Fatalf("point %d failed: %s", p.Index, p.Error)
		}
		if p.Cycles != want[p.Index].Cycles {
			t.Errorf("point %d: remote %d cycles, local %d", p.Index, p.Cycles, want[p.Index].Cycles)
		}
		byIndex[p.Index] = p
	}
	for i := 0; i < 2; i++ {
		if byIndex[i].Key != byIndex[i+2].Key {
			t.Errorf("aliased points %d and %d have different keys", i, i+2)
		}
	}
	if n := workerEngine.Metrics.Execs.Value(); n != 2 {
		t.Errorf("worker simulated %v points, want 2 (aliases must dedup, not re-dispatch)", n)
	}
}

// TestExecutedPointsStayOnTheNode: a point sent to a node's POST /execute
// runs on that node's engine, never on the node's own fleet, so a fleet
// stays one level deep even though every node is a coordinator too.
// Coordinator A dispatches to node B, and B has its own worker C
// registered: B simulates both points, and neither A nor C simulates any.
func TestExecutedPointsStayOnTheNode(t *testing.T) {
	newEngine := func() *runner.Engine {
		return &runner.Engine{Base: testBase(), Store: runner.NewStore(),
			Metrics: runner.NewEngineMetrics(obs.NewRegistry())}
	}
	engA, engB, engC := newEngine(), newEngine(), newEngine()
	c := workerServerFor(t, engC)
	nodeB := service.New(engB, 2)
	nodeB.RegisterWorker(c.URL, NewExecutor(c.URL), 2)
	b := httptest.NewServer(nodeB.Handler())
	t.Cleanup(b.Close)
	nodeA := service.New(engA, 2)
	nodeA.RegisterWorker(b.URL, NewExecutor(b.URL), 2)
	a := httptest.NewServer(nodeA.Handler())
	t.Cleanup(a.Close)

	got, err := (&Client{URL: a.URL}).Sweep(context.Background(), service.SubmitRequest{
		Benchmarks: []string{"histogram"},
		Runtimes:   []string{"software", "tdm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("sweep streamed %d points, want 2", len(got))
	}
	for _, p := range got {
		if p.Error != "" {
			t.Fatalf("point %d failed: %s", p.Index, p.Error)
		}
	}
	for _, n := range []struct {
		name string
		eng  *runner.Engine
		want float64
	}{{"A", engA, 0}, {"B", engB, 2}, {"C", engC, 0}} {
		if got := n.eng.Metrics.Execs.Value(); got != n.want {
			t.Errorf("node %s simulated %v points, want %v", n.name, got, n.want)
		}
	}
}

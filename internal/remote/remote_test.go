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
	"repro/internal/taskrt"
	"repro/internal/workloads/synth"
)

func testBase() core.Config {
	cfg := core.DefaultConfig(taskrt.Software)
	cfg.Machine = cfg.Machine.WithCores(8)
	return cfg
}

func TestJobCodecRoundTrip(t *testing.T) {
	base := testBase()
	prog, err := synth.Generate("synth:stencil:width=4,depth=3,mean=10", base.Machine)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []runner.Job{
		{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO},
		{Benchmark: "cholesky", Runtime: taskrt.TDM, Scheduler: sched.Locality, Cores: 16, Granularity: 64, Label: "grid"},
		{Benchmark: prog.Name, Runtime: taskrt.TDM, Scheduler: sched.FIFO, Program: prog, Label: "replay"},
	}
	for _, j := range jobs {
		data, err := EncodeJob(j)
		if err != nil {
			t.Fatalf("encode %s: %v", j.Desc(), err)
		}
		back, err := DecodeJob(data)
		if err != nil {
			t.Fatalf("decode %s: %v", j.Desc(), err)
		}
		// The decoded job must content-address identically: same point,
		// same store key, on every machine in the fleet.
		if back.Key(base) != j.Key(base) {
			t.Errorf("job %s changed its key across the wire", j.Desc())
		}
	}
}

func TestJobCodecRejectsMutateAndGarbage(t *testing.T) {
	mutated := runner.Job{
		Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO,
		Mutate: func(cfg *core.Config) { cfg.DMU.AccessLatency = 4 },
	}
	if _, err := EncodeJob(mutated); err == nil {
		t.Error("job with a Mutate closure encoded silently (the mutation would be dropped)")
	}
	for _, data := range []string{
		`not json`,
		`{"benchmark":"histogram","runtime":"no-such-runtime"}`,
		`{"benchmark":"histogram","runtime":"software","bogus":1}`,
		`{"benchmark":"histogram","runtime":"software","program":{"schema":99}}`,
	} {
		if _, err := DecodeJob([]byte(data)); err == nil {
			t.Errorf("DecodeJob(%q) accepted garbage", data)
		}
	}
}

// workerServer hosts a Worker over a real engine, as sweepd -worker does.
func workerServer(t *testing.T) *httptest.Server {
	t.Helper()
	return workerServerFor(t, &runner.Engine{Base: testBase(), Store: runner.NewStore()})
}

func workerServerFor(t *testing.T, engine *runner.Engine) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("POST /execute", (&Worker{Engine: engine}).Handler())
	ts := httptest.NewServer(mux)
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
	if got.Program == nil || got.Program.NumTasks() != want.Program.NumTasks() {
		t.Error("remote result lost its program")
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
// flattened the decode error through %v, hiding it from errors.Is/As.)
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

	incomplete := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}"))
	}))
	defer incomplete.Close()
	_, err = NewExecutor(incomplete.URL).Execute(context.Background(), job)
	if !runner.IsTransient(err) || err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete result returned %v, want a transient incomplete-result error", err)
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

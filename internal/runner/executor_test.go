package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/taskrt"
)

// TestEngineExecuteMatchesRun: Execute, the engine's executor form,
// simulates the same point as Run but bypasses the store.
func TestEngineExecuteMatchesRun(t *testing.T) {
	job := Job{Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO}
	e := &Engine{Base: testBase(), Store: NewStore()}
	viaRun, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	viaExecute, err := e.Execute(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if viaExecute.Cycles != viaRun.Cycles || viaExecute.Energy.EDP != viaRun.Energy.EDP {
		t.Errorf("Execute diverged from Run: %d vs %d cycles", viaExecute.Cycles, viaRun.Cycles)
	}
	if viaExecute == viaRun {
		t.Error("Execute returned the stored result instead of simulating")
	}
}

// TestEngineExecuteBoundsWorkers: with Workers 1, a second concurrent
// Execute waits for the first's execution slot and gives up with its
// context's cause, never starting a simulation.
func TestEngineExecuteBoundsWorkers(t *testing.T) {
	// Execute logs its progress line once it holds the slot, so the first
	// execution holds the slot until the log writer is released.
	log := &blockingWriter{started: make(chan struct{}), release: make(chan struct{})}
	e := &Engine{Base: testBase(), Workers: 1, Log: log, Metrics: NewEngineMetrics(obs.NewRegistry())}
	long := Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO}
	first := make(chan error, 1)
	go func() {
		_, err := e.Execute(context.Background(), long)
		first <- err
	}()
	<-log.started

	cause := errors.New("gave up waiting for a slot")
	ctx, cancel := context.WithCancelCause(context.Background())
	time.AfterFunc(20*time.Millisecond, func() { cancel(cause) })
	_, err := e.Execute(ctx, Job{Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO})
	if !errors.Is(err, cause) {
		t.Errorf("waiting Execute returned %v, want its context's cause", err)
	}
	if n := e.Metrics.Execs.Value(); n != 1 {
		t.Errorf("runner_execs_total = %v while one slot was held, want 1", n)
	}

	close(log.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// The released slot serves the next caller.
	if _, err := e.Execute(context.Background(), Job{Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO}); err != nil {
		t.Fatal(err)
	}
	if n := e.Metrics.Execs.Value(); n != 2 {
		t.Errorf("runner_execs_total = %v after two executions, want 2", n)
	}
}

// blockingWriter holds its first Write until release is closed.
type blockingWriter struct {
	once             sync.Once
	started, release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	return len(p), nil
}

func TestTransientErrorClassification(t *testing.T) {
	base := errors.New("connection refused")
	wrapped := Transient(base)
	if !IsTransient(wrapped) {
		t.Error("Transient error not recognized")
	}
	if !IsTransient(fmt.Errorf("dispatch: %w", wrapped)) {
		t.Error("wrapped transient error not recognized")
	}
	if !errors.Is(wrapped, base) {
		t.Error("Transient hides the underlying error from errors.Is")
	}
	if IsTransient(base) {
		t.Error("plain error classified transient")
	}
	if IsTransient(nil) || Transient(nil) != nil {
		t.Error("nil error mishandled")
	}
	if IsTransient(context.Canceled) {
		t.Error("cancellation classified transient")
	}
}

// TestErrorClass pins the one classifier behind the engine's and the
// remote executors' error counters.
func TestErrorClass(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{context.Canceled, "cancelled"},
		{context.DeadlineExceeded, "cancelled"},
		{fmt.Errorf("histogram/tdm/fifo: %w", taskrt.ErrCancelled), "cancelled"},
		{Transient(errors.New("connection refused")), "transient"},
		{errors.New("unknown benchmark"), "permanent"},
	} {
		if got := ErrorClass(tc.err); got != tc.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestStoreHostileKeys: keys containing path separators or CreateTemp's
// '*' placeholder must persist and load like any other key, without
// escaping the store directory or breaking the temp-file pattern.
// Regression test: save built its temp pattern from the raw key while
// path() sanitized it, so a key with '/' (or '*') failed to persist.
func TestStoreHostileKeys(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Base: testBase()}).Run(Job{
		Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"a/b/c",
		"*",
		"star*middle",
		`back\slash`,
		"../../escape-attempt",
		"plain-key",
	}
	for _, key := range keys {
		if err := store.Put(key, res); err != nil {
			t.Errorf("Put(%q): %v", key, err)
			continue
		}
		if _, ok := store.Get(key); !ok {
			t.Errorf("Get(%q) missed after Put", key)
		}
	}
	// Every file landed inside the store directory, fully written, with no
	// temp droppings.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".json") {
			t.Errorf("store left a non-result file: %s", ent.Name())
		}
	}
	if len(entries) != len(keys) {
		t.Errorf("store dir holds %d files, want %d", len(entries), len(keys))
	}
	if escaped, _ := filepath.Glob(filepath.Join(dir, "..", "*.json")); len(escaped) != 0 {
		t.Errorf("hostile key escaped the store directory: %v", escaped)
	}
	// A fresh store over the same directory serves all of them warm.
	fresh, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if _, ok := fresh.Get(key); !ok {
			t.Errorf("reloaded store missed key %q", key)
		}
	}
}

// TestGridSizeMatchesJobs: Size must predict len(Jobs()) exactly — the
// submission path rejects oversized grids from Size before expanding them.
func TestGridSizeMatchesJobs(t *testing.T) {
	grids := []Grid{
		{},
		{Benchmarks: []string{"histogram"}},
		{
			Benchmarks: []string{"histogram", "cholesky"},
			Runtimes:   []taskrt.Kind{taskrt.Software, taskrt.TDM, taskrt.Carbon},
			Schedulers: []string{sched.FIFO, sched.LIFO},
			Cores:      []int{8, 16},
		},
		{
			Benchmarks:    []string{"synth:all", "histogram"},
			Runtimes:      []taskrt.Kind{taskrt.Carbon, taskrt.TaskSuperscalar},
			Schedulers:    []string{sched.FIFO, sched.LIFO, sched.Locality},
			Granularities: []int64{0, 32, 64},
		},
	}
	for i, g := range grids {
		if got, want := g.Size(), len(g.Jobs()); got != want {
			t.Errorf("grid %d: Size() = %d, len(Jobs()) = %d", i, got, want)
		}
	}
}

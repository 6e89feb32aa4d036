package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/taskrt"
	"repro/internal/workloads"
	"repro/internal/workloads/synth"
)

// testBase is the shared base configuration: the default machine shrunk to
// 8 cores so each simulated point stays fast.
func testBase() core.Config {
	cfg := core.DefaultConfig(taskrt.Software)
	cfg.Machine = cfg.Machine.WithCores(8)
	return cfg
}

func testJobs() []Job {
	return []Job{
		{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO, Label: "base"},
		{Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO, Label: "base"},
		{Benchmark: "fluidanimate", Runtime: taskrt.Software, Scheduler: sched.FIFO, Label: "base"},
		// Alias of the first point under a different label: must dedup.
		{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO, Label: "alias"},
	}
}

func TestJobKeyContentAddressing(t *testing.T) {
	base := testBase()
	j := Job{Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO}
	if j.Key(base) != j.Key(base) {
		t.Fatal("key not deterministic")
	}
	labeled := j
	labeled.Label = "something else"
	if labeled.Key(base) != j.Key(base) {
		t.Error("label must not contribute to the key")
	}
	slowDMU := base.DMU
	slowDMU.AccessLatency = 4
	distinct := map[string]Job{
		"scheduler":   {Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.LIFO},
		"runtime":     {Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO},
		"benchmark":   {Benchmark: "cholesky", Runtime: taskrt.TDM, Scheduler: sched.FIFO},
		"cores":       {Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO, Cores: 16},
		"granularity": {Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO, Granularity: 64},
		"dmu":         {Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO, DMU: &slowDMU},
	}
	for dim, other := range distinct {
		if other.Key(base) == j.Key(base) {
			t.Errorf("changing %s did not change the key", dim)
		}
	}
	// A DMU override equal to the base DMU resolves to the same config and
	// must share the key.
	same := j
	same.DMU = &base.DMU
	if same.Key(base) != j.Key(base) {
		t.Error("a DMU override equal to the base DMU changed the key")
	}
	// So must the Table II optimal granularity given explicitly (as Fig. 6
	// enumerates it), for software and TDM runs alike.
	hist, err := workloads.ByName("histogram")
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []taskrt.Kind{taskrt.TDM, taskrt.Software} {
		dflt := Job{Benchmark: "histogram", Runtime: rt, Scheduler: sched.FIFO}
		explicit := dflt
		explicit.Granularity = hist.OptimalFor(rt.UsesDMU())
		if explicit.Key(base) != dflt.Key(base) {
			t.Errorf("%s: the explicit optimal granularity %d changed the key", rt, explicit.Granularity)
		}
	}
}

func TestEngineRunAllDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := testJobs()
	var results [][]*core.Result
	for _, workers := range []int{1, 4} {
		e := &Engine{Base: testBase(), Store: NewStore(), Workers: workers}
		res, err := e.RunAll(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(res), len(jobs))
		}
		results = append(results, res)
	}
	for i := range jobs {
		a, b := results[0][i], results[1][i]
		if a.Cycles != b.Cycles || a.Energy.EDP != b.Energy.EDP || a.Master != b.Master {
			t.Errorf("job %d (%s): 1-worker and 4-worker results differ: %d vs %d cycles",
				i, jobs[i].Desc(), a.Cycles, b.Cycles)
		}
	}
	// The aliased point shares one simulation (same *Result instance).
	if results[1][0] != results[1][3] {
		t.Error("duplicate points were not deduplicated")
	}
}

func TestEngineErrorsAreDeterministic(t *testing.T) {
	e := &Engine{Base: testBase(), Store: NewStore(), Workers: 4}
	jobs := []Job{
		{Benchmark: "no-such-benchmark", Runtime: taskrt.Software, Scheduler: sched.FIFO},
		{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO},
	}
	res, err := e.RunAll(jobs)
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Errorf("error does not identify the failing point: %v", err)
	}
	if res[1] == nil {
		t.Error("healthy point did not produce a result alongside the failing one")
	}
}

func TestStoreDiskResume(t *testing.T) {
	dir := t.TempDir()
	job := Job{Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO, Label: "base"}

	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	e := &Engine{Base: testBase(), Store: store, Log: &log}
	first, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(log.String(), "running"); got != 1 {
		t.Fatalf("expected 1 simulation, log shows %d", got)
	}

	// A fresh store over the same directory must serve the point warm.
	resumed, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	log.Reset()
	e2 := &Engine{Base: testBase(), Store: resumed, Log: &log}
	second, err := e2.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(log.String(), "running") {
		t.Error("resumed store re-simulated a persisted point")
	}
	if second.Cycles != first.Cycles || second.Energy.EDP != first.Energy.EDP {
		t.Errorf("resumed result differs: %d vs %d cycles", second.Cycles, first.Cycles)
	}
	if second.Master != first.Master || second.TasksExecuted != first.TasksExecuted {
		t.Error("resumed result lost breakdown or task counts")
	}
}

func TestStoreIgnoresCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Base: testBase(), Store: store}
	job := Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO}
	key := e.Key(job)
	path := filepath.Join(dir, key+".json")
	// A file truncated mid-write by a crash.
	if err := os.WriteFile(path, []byte(`{"Cycles": 42, "Seconds": 0.0`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(key); ok {
		t.Fatal("corrupt file served as a cache hit")
	}
	// The corrupt file is quarantined, not deleted and not left in place: a
	// resume never re-parses known garbage, and the operator can inspect it.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt file still in place after load: %v", err)
	}
	if data, err := os.ReadFile(path + CorruptSuffix); err != nil {
		t.Errorf("corrupt file not quarantined: %v", err)
	} else if !strings.HasPrefix(string(data), `{"Cycles"`) {
		t.Errorf("quarantined file lost its content: %q", data)
	}
	// Valid JSON missing whole sections (a foreign or trimmed schema) must
	// also be a miss, never a partially populated result. The second body
	// is what an older binary's result looked like with its simulation
	// fields lost.
	for _, body := range []string{`{"Cycles": 42}`, `{"Cycles":42,"Program":{}}`} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if res, ok := store.Get(key); ok {
			t.Fatalf("incomplete result file %s served as a cache hit with %d cycles", body, res.Cycles)
		}
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(key); !ok {
		t.Error("re-simulated point not cached")
	}
	// The re-simulated result replaced the original file; a fresh store
	// over the same directory serves it warm again.
	fresh, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(key); !ok {
		t.Error("re-simulated point not persisted under the original name")
	}
}

// TestStoreLoadsOlderResults: a result file written by an older binary also
// holds the program that ran. It must still load from disk as a hit with
// unchanged cycles; it shrinks only when GC or a re-simulation replaces it.
func TestStoreLoadsOlderResults(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t)
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
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "older.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := store.Get("older")
	if !ok {
		t.Fatal("result file with a program served as a miss")
	}
	if got.Cycles != res.Cycles || got.TasksExecuted != res.TasksExecuted {
		t.Errorf("older result loaded as %d cycles, %d tasks; want %d, %d",
			got.Cycles, got.TasksExecuted, res.Cycles, res.TasksExecuted)
	}
}

func TestStoreSingleflight(t *testing.T) {
	store := NewStore()
	var calls int32
	var mu sync.Mutex
	fn := func(context.Context) (*core.Result, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		return &core.Result{}, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := store.Do(context.Background(), "k", fn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("singleflight ran the computation %d times", calls)
	}
}

// TestStoreResident: Resident answers from the memory tier alone and counts
// a hit there as Do does. A result only on disk, or a key in flight, is a
// miss at once: no disk read, no wait, nothing counted.
func TestStoreResident(t *testing.T) {
	dir := t.TempDir()
	first, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Put("k", testResult(t)); err != nil {
		t.Fatal(err)
	}
	st, err := NewDiskStore(dir) // a reopen: "k" is on disk only
	if err != nil {
		t.Fatal(err)
	}
	st.Metrics = NewStoreMetrics(obs.NewRegistry())
	hits := func(source string) float64 { return st.Metrics.Hits.With(source).Value() }
	if _, ok := st.Resident("k"); ok {
		t.Fatal("Resident served a result held on disk only")
	}
	if st.Len() != 0 || hits("mem") != 0 || hits("disk") != 0 || st.Metrics.Misses.Value() != 0 {
		t.Fatalf("a Resident miss loaded or counted something: %d resident, %v mem and %v disk hits, %v misses",
			st.Len(), hits("mem"), hits("disk"), st.Metrics.Misses.Value())
	}
	want, ok := st.Get("k")
	if !ok {
		t.Fatal("Get missed a persisted result")
	}
	if got, ok := st.Resident("k"); !ok || got != want {
		t.Fatalf("Resident after Get = %p, %v; want the resident %p", got, ok, want)
	}
	if hits("mem") != 1 {
		t.Errorf("store_hits_total{source=\"mem\"} = %v after one Resident hit, want 1", hits("mem"))
	}

	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, _, err := st.Do(context.Background(), "slow", func(context.Context) (*core.Result, error) {
			close(started)
			<-release
			return want, nil
		})
		done <- err
	}()
	<-started
	if _, ok := st.Resident("slow"); ok {
		t.Error("Resident served a key still in flight")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Resident("slow"); !ok {
		t.Error("Resident missed a key Do just computed")
	}
}

// TestStoreDoWaiterCancellation: a waiter whose context dies stops blocking
// on the in-flight owner and returns its own cancellation cause; the owner's
// computation is unaffected.
func TestStoreDoWaiterCancellation(t *testing.T) {
	store := NewStore()
	started := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		_, _, err := store.Do(context.Background(), "k", func(context.Context) (*core.Result, error) {
			close(started)
			<-release
			return &core.Result{}, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started

	cause := errors.New("request dropped")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, _, err := store.Do(ctx, "k", nil); !errors.Is(err, cause) {
		t.Errorf("cancelled waiter returned %v, want its cancellation cause", err)
	}
	close(release)
	<-ownerDone
	if _, ok := store.Get("k"); !ok {
		t.Error("owner's computation was lost after a waiter cancelled")
	}
}

// TestStoreDoOwnerCancelRetry: when the owner's computation dies of the
// owner's own cancellation, a waiter with a live context takes the key over
// instead of inheriting the foreign cancellation error.
func TestStoreDoOwnerCancelRetry(t *testing.T) {
	store := NewStore()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, err := store.Do(context.Background(), "k", func(context.Context) (*core.Result, error) {
			close(started)
			<-release
			return nil, fmt.Errorf("point: %w", context.Canceled)
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("owner returned %v, want its own cancellation", err)
		}
	}()
	<-started

	waiterErr := make(chan error, 1)
	var retried int32
	go func() {
		_, _, err := store.Do(context.Background(), "k", func(context.Context) (*core.Result, error) {
			atomic.AddInt32(&retried, 1)
			return &core.Result{}, nil
		})
		waiterErr <- err
	}()
	// Give the waiter time to park on the in-flight call, then fail the
	// owner with its cancellation.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-waiterErr; err != nil {
		t.Fatalf("waiter did not take over after owner cancellation: %v", err)
	}
	if atomic.LoadInt32(&retried) != 1 {
		t.Errorf("waiter ran the computation %d times, want 1", retried)
	}
	if _, ok := store.Get("k"); !ok {
		t.Error("retried result not cached")
	}
}

func TestGridExpansion(t *testing.T) {
	g := Grid{
		Benchmarks: []string{"histogram", "cholesky"},
		Runtimes:   []taskrt.Kind{taskrt.Software, taskrt.TDM, taskrt.Carbon},
		Schedulers: []string{sched.FIFO, sched.LIFO},
		Cores:      []int{8, 16},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs := g.Jobs()
	// Software and TDM honour both schedulers; Carbon collapses to one
	// point: 2 benchmarks x (2*2 + 1) x 2 core counts.
	if want := 2 * 5 * 2; len(jobs) != want {
		t.Fatalf("grid expanded to %d jobs, want %d", len(jobs), want)
	}
	base := testBase()
	seen := make(map[string]bool)
	for _, j := range jobs {
		if seen[j.Key(base)] {
			t.Fatalf("grid emitted duplicate point %s", j.Desc())
		}
		seen[j.Key(base)] = true
	}

	// Defaults: empty dimensions cover all benchmarks and runtimes once.
	all := Grid{}.Jobs()
	if want := len(workloads.Names()) * len(taskrt.Kinds()); len(all) != want {
		t.Fatalf("default grid expanded to %d jobs, want %d", len(all), want)
	}

	bad := Grid{Benchmarks: []string{"nope"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown benchmark accepted")
	}
	bad = Grid{Schedulers: []string{"nope"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown scheduler accepted")
	}
	bad = Grid{Runtimes: []taskrt.Kind{"nope"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown runtime accepted")
	}
}

func TestGridSyntheticWorkloads(t *testing.T) {
	g := Grid{
		Benchmarks: []string{"histogram", "synth:layered:seed=7,width=6,depth=6", "synth:chain"},
		Runtimes:   []taskrt.Kind{taskrt.Software, taskrt.TDM},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs := g.Jobs()
	if want := 3 * 2; len(jobs) != want {
		t.Fatalf("grid expanded to %d jobs, want %d", len(jobs), want)
	}

	// synth:all expands to one spec per family.
	all := Grid{Benchmarks: []string{"synth:all"}, Runtimes: []taskrt.Kind{taskrt.TDM}}
	if err := all.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := len(synth.Families()); len(all.Jobs()) != want {
		t.Fatalf("synth:all expanded to %d jobs, want %d", len(all.Jobs()), want)
	}

	bad := Grid{Benchmarks: []string{"synth:nosuchfamily"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown synthetic family accepted")
	}

	// A synthetic point runs end to end through the engine.
	eng := &Engine{Base: testBase(), Store: NewStore()}
	res, err := eng.Run(Job{
		Benchmark: "synth:layered:seed=7,width=6,depth=6",
		Runtime:   taskrt.TDM,
		Scheduler: sched.FIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 36 {
		t.Fatalf("synthetic run executed %d of 36 tasks", res.TasksExecuted)
	}
}

// renderResults serializes the fields a sweep report is assembled from, so
// two runs can be compared byte-for-byte.
func renderResults(t *testing.T, results []*core.Result) []byte {
	t.Helper()
	type row struct {
		Tasks   int
		Cycles  int64
		Seconds float64
		EnergyJ float64
		EDP     float64
	}
	rows := make([]row, len(results))
	for i, r := range results {
		rows[i] = row{r.TasksExecuted, r.Cycles, r.Seconds, r.Energy.EnergyJoules, r.Energy.EDP}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cancelAfterLines is an Engine.Log sink that cancels a context when the n-th
// progress line is written — i.e. while that simulation point is in flight.
type cancelAfterLines struct {
	mu     sync.Mutex
	lines  int
	at     int
	cancel context.CancelFunc
}

func (c *cancelAfterLines) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines++
	if c.lines == c.at {
		c.cancel()
	}
	return len(p), nil
}

// TestCrashResume is the crash-recovery integration test: a disk-backed sweep
// is cancelled while its second point is in flight, then restarted against
// the same store. Completed points must load warm (no re-simulation) and the
// final results must be byte-identical to an uninterrupted run, with no
// corrupt store entries surviving. Points start in any order, so the test
// does not care which point completes first, only that exactly one does.
func TestCrashResume(t *testing.T) {
	jobs := []Job{
		{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO},
		{Benchmark: "histogram", Runtime: taskrt.TDM, Scheduler: sched.FIFO},
		{Benchmark: "fluidanimate", Runtime: taskrt.Software, Scheduler: sched.FIFO},
		{Benchmark: "dedup", Runtime: taskrt.Software, Scheduler: sched.FIFO},
	}

	// Reference: an uninterrupted run of the same grid.
	refStore, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refResults, err := (&Engine{Base: testBase(), Store: refStore, Workers: 1}).RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := renderResults(t, refResults)

	// Interrupted run: cancel while the second point to start is in flight.
	// Workers: 1 lets the first point complete and persist before the
	// second starts, and no point starts after the cancellation.
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &cancelAfterLines{at: 2, cancel: cancel}
	e := &Engine{Base: testBase(), Store: store, Workers: 1, Log: log}
	out, err := e.RunAllContext(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	completed := 0
	for _, r := range out {
		if r != nil {
			completed++
		}
	}
	if completed != 1 {
		t.Fatalf("interrupted sweep returned %d results, want 1 (the point completed before the cancellation)", completed)
	}
	if log.lines != 2 {
		t.Fatalf("interrupted sweep started %d points, want 2 (none after the cancellation)", log.lines)
	}

	// The store directory holds only complete, parsable results: exactly
	// the points that finished, no temp files (hidden ".KEY.tmp*"), no
	// corrupt entries.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	resultFiles := 0
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".") || !strings.HasSuffix(ent.Name(), ".json") {
			t.Errorf("interrupted store left a non-result file behind: %s", ent.Name())
			continue
		}
		resultFiles++
	}
	if resultFiles != 1 {
		t.Fatalf("interrupted store holds %d results, want 1 (the completed point)", resultFiles)
	}

	// Resume against the same directory with a fresh store (a new process).
	resumed, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var resumeLog bytes.Buffer
	e2 := &Engine{Base: testBase(), Store: resumed, Workers: 1, Log: &resumeLog}
	results, err := e2.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(resumeLog.String(), "running"); got != len(jobs)-1 {
		t.Errorf("resume re-simulated %d points, want %d (completed point must load warm)", got, len(jobs)-1)
	}
	if got := renderResults(t, results); !bytes.Equal(got, want) {
		t.Errorf("resumed sweep differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestRunAllContextPreCancelled: a sweep submitted with a dead context does
// not simulate anything and reports the cancellation cause.
func TestRunAllContextPreCancelled(t *testing.T) {
	cause := errors.New("drain")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	var log bytes.Buffer
	e := &Engine{Base: testBase(), Store: NewStore(), Log: &log}
	out, err := e.RunAllContext(ctx, testJobs())
	if !errors.Is(err, cause) {
		t.Fatalf("got %v, want the cancellation cause", err)
	}
	for i, r := range out {
		if r != nil {
			t.Errorf("point %d simulated under a dead context", i)
		}
	}
	if log.Len() != 0 {
		t.Errorf("dead-context sweep logged progress: %q", log.String())
	}
}

// TestJobRunContextPreCancelled: a generated job (no program, no memo) run
// under a dead context reports the cancellation cause instead of a result.
// POST /execute and an un-memoized Engine.RunContext both take this path.
func TestJobRunContextPreCancelled(t *testing.T) {
	cause := errors.New("drain")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	j := Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO}
	res, err := j.RunContext(ctx, testBase())
	if !errors.Is(err, cause) {
		t.Fatalf("got %v, want an error wrapping the cancellation cause", err)
	}
	if res != nil {
		t.Error("a dead context returned a result")
	}
}

func TestReplayJobs(t *testing.T) {
	base := testBase()
	prog, err := synth.Generate("synth:stencil:width=4,depth=3,mean=10", base.Machine)
	if err != nil {
		t.Fatal(err)
	}

	generated := Job{Benchmark: "synth:stencil:width=4,depth=3,mean=10", Runtime: taskrt.TDM, Scheduler: sched.FIFO}
	replayed := Job{Benchmark: prog.Name, Runtime: taskrt.TDM, Scheduler: sched.FIFO, Program: prog}

	// The replay program contributes to the key: a replayed point is
	// distinct from the generated point of the same name, and two replays
	// of different programs differ.
	if replayed.Key(base) == generated.Key(base) {
		t.Error("replay program did not contribute to the job key")
	}
	other, err := synth.Generate("synth:stencil:width=4,depth=3,mean=20", base.Machine)
	if err != nil {
		t.Fatal(err)
	}
	otherJob := replayed
	otherJob.Program = other
	if otherJob.Key(base) == replayed.Key(base) {
		t.Error("different replay programs share a key")
	}
	if replayed.Key(base) != replayed.Key(base) {
		t.Error("replay key not deterministic")
	}

	// Replaying the serialized program reproduces the generated run
	// cycle-for-cycle.
	data, err := task.MarshalProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	back, err := task.UnmarshalProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Base: base, Store: NewStore()}
	direct, err := eng.Run(generated)
	if err != nil {
		t.Fatal(err)
	}
	fromFile := replayed
	fromFile.Program = back
	res, err := eng.Run(fromFile)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != direct.Cycles {
		t.Fatalf("replayed run took %d cycles, generated run %d", res.Cycles, direct.Cycles)
	}
}

package runner_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/taskrt"
	"repro/internal/workloads"
)

// keyedJobs returns the experiments' base configuration and every job of
// the paper's experiments, followed by one job of each kind Engine.Key
// treats apart: a DMU override and a program (never memoized), a label (left
// out of the memo's index) and an explicit Table II granularity (keyed as
// 0).
func keyedJobs(t *testing.T) (core.Config, []runner.Job) {
	t.Helper()
	opt := experiments.DefaultOptions()
	jobs, err := experiments.JobsFor(opt, experiments.All()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 436 {
		t.Fatalf("the experiments enumerate %d jobs, want 436", len(jobs))
	}
	base := core.DefaultConfig(taskrt.Software)
	base.Machine, base.Power, base.DMU = opt.Machine, opt.Power, opt.DMU

	small := base.DMU
	small.TATEntries /= 2
	bench, err := workloads.ByName("histogram")
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := core.ResolveBenchmark("cholesky", 0, base)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs,
		runner.Job{Benchmark: "cholesky", Runtime: taskrt.TDM, Scheduler: sched.FIFO, DMU: &small},
		runner.Job{Benchmark: "histogram", Runtime: taskrt.Software, Program: bench.GenerateOptimal(false, base.Machine)},
		runner.Job{Benchmark: "cholesky", Runtime: taskrt.Software, Scheduler: sched.FIFO, Label: "labelled"},
		runner.Job{Benchmark: "cholesky", Runtime: taskrt.Software, Scheduler: sched.FIFO, Granularity: optimal.Granularity},
	)
	return base, jobs
}

// TestEngineKeyMemo: the engine's memoized keys equal the keys the jobs
// derive themselves, on a first and a second call, so every content
// address, TestJobKeysPinned's digest included, stays as it was.
func TestEngineKeyMemo(t *testing.T) {
	base, jobs := keyedJobs(t)
	eng := &runner.Engine{Base: base}
	for pass := 1; pass <= 2; pass++ {
		for _, j := range jobs {
			if got, want := eng.Key(j), j.Key(base); got != want {
				t.Errorf("call %d: Engine.Key(%s) = %s, want %s", pass, j.Desc(), got, want)
			}
		}
	}
	// The labelled and explicit-granularity jobs share the key of the plain
	// job: neither field reaches the content address.
	plain := runner.Job{Benchmark: "cholesky", Runtime: taskrt.Software, Scheduler: sched.FIFO}
	n := len(jobs)
	for _, j := range jobs[n-2:] {
		if got, want := eng.Key(j), eng.Key(plain); got != want {
			t.Errorf("Engine.Key(%s) = %s, want the plain job's %s", j.Desc(), got, want)
		}
	}
}

// TestEngineKeyMemoBounded: the memo fills up to its bound and is emptied
// when a new key would pass it.
func TestEngineKeyMemoBounded(t *testing.T) {
	eng := &runner.Engine{Base: core.DefaultConfig(taskrt.Software)}
	job := func(i int) runner.Job {
		return runner.Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: fmt.Sprintf("policy-%d", i)}
	}
	for i := range 4096 {
		eng.Key(job(i))
	}
	if n := eng.KeyMemoLen(); n != 4096 {
		t.Fatalf("after 4096 distinct jobs the memo holds %d keys, want 4096", n)
	}
	j := job(4096)
	if got, want := eng.Key(j), j.Key(eng.Base); got != want {
		t.Errorf("Engine.Key past the bound = %s, want %s", got, want)
	}
	if n := eng.KeyMemoLen(); n > 4096 {
		t.Errorf("after 4097 distinct jobs the memo holds %d keys, want at most 4096", n)
	}
}

// TestEngineKeyMemoConcurrent: callers sharing one engine from several
// goroutines at once get the same keys as jobs derive themselves. Run it
// under the race detector.
func TestEngineKeyMemoConcurrent(t *testing.T) {
	base, jobs := keyedJobs(t)
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = j.Key(base)
	}
	eng := &runner.Engine{Base: base}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := range 2 {
				// Each goroutine walks the jobs from its own offset, so
				// first calls and memo hits of one key interleave.
				for i := range jobs {
					k := (i + g*len(jobs)/4) % len(jobs)
					if got := eng.Key(jobs[k]); got != want[k] {
						t.Errorf("goroutine %d, pass %d: Engine.Key(%s) = %s, want %s", g, pass, jobs[k].Desc(), got, want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

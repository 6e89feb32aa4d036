package runner_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/taskrt"
)

// TestRunAllGeneratesEachProgramOnce runs the Fig. 12 and Fig. 13 points in
// one RunAll call. Their 108 distinct points simulate 11 distinct programs:
// one per benchmark at its Table II granularity, plus a second for
// blackscholes and qr, whose software and TDM granularities differ. The
// results must share exactly those 11 programs, and a point on another
// machine must get a program of its own.
func TestRunAllGeneratesEachProgramOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the 108 Fig. 12 and Fig. 13 points")
	}
	opt := experiments.DefaultOptions()
	var exps []experiments.Experiment
	for _, id := range []string{"fig12", "fig13"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	jobs, err := experiments.JobsFor(opt, exps...)
	if err != nil {
		t.Fatal(err)
	}
	fewerCores := runner.Job{Benchmark: "cholesky", Runtime: taskrt.TDM, Scheduler: sched.FIFO,
		Mutate: func(cfg *core.Config) { cfg.Machine.Cores = 16 }}
	eng := &runner.Engine{Base: core.DefaultConfig(taskrt.Software)}
	results, err := eng.RunAll(append(jobs, fewerCores))
	if err != nil {
		t.Fatal(err)
	}

	keys := make(map[string]bool)
	programs := make(map[*task.Program]bool)
	var cholesky *task.Program
	for i, j := range jobs {
		keys[eng.Key(j)] = true
		programs[results[i].Program] = true
		if j.Benchmark == "cholesky" && j.Runtime == taskrt.TDM {
			cholesky = results[i].Program
		}
	}
	if len(keys) != 108 || len(programs) != 11 {
		t.Errorf("%d distinct points share %d distinct programs, want 108 and 11", len(keys), len(programs))
	}
	if own := results[len(jobs)].Program; own == cholesky || programs[own] {
		t.Error("a point on a 16-core machine shares a 32-core point's program")
	}
}

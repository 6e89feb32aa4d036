package runner_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/taskrt"
	"repro/internal/workloads"
)

// TestRunAllGeneratesEachProgramOnce runs the Fig. 12 and Fig. 13 points in
// one RunAll call. Their 108 distinct points simulate 11 distinct programs:
// one per benchmark at its Table II granularity, plus a second for
// blackscholes and qr, whose software and TDM granularities differ. The call
// must generate exactly those 11, and a point on another machine must get a
// program of its own. The results carry no program, so all 108 stay small.
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
	fewerCores := runner.Job{Benchmark: "cholesky", Runtime: taskrt.TDM, Scheduler: sched.FIFO, Cores: 16}
	eng := &runner.Engine{Base: core.DefaultConfig(taskrt.Software)}
	results, programs, err := eng.RunAllCountingPrograms(append(jobs, fewerCores))
	if err != nil {
		t.Fatal(err)
	}

	keys := make(map[string]bool)
	var total, largest int
	for i, j := range jobs {
		k := eng.Key(j)
		if keys[k] {
			continue
		}
		keys[k] = true
		data, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		total += len(data)
		largest = max(largest, len(data))
	}
	if len(keys) != 108 || programs[32] != 11 {
		t.Errorf("%d distinct points generated %d distinct programs, want 108 and 11", len(keys), programs[32])
	}
	if programs[16] != 1 || len(programs) != 2 {
		t.Errorf("programs generated by machine core count = %v, want one of its own for the 16-core point", programs)
	}
	t.Logf("%d distinct results marshal to %d bytes, the largest to %d", len(keys), total, largest)
	if total >= 2e6 {
		t.Errorf("the %d distinct results marshal to %d bytes (largest %d), want under 2 MB", len(keys), total, largest)
	}
}

// ctxSpy is a fleet worker that runs its points on an engine of its own and
// keeps the context the service hands them.
type ctxSpy struct {
	eng *runner.Engine

	mu  sync.Mutex
	ctx context.Context
}

func (s *ctxSpy) Execute(ctx context.Context, j runner.Job) (*core.Result, error) {
	s.mu.Lock()
	s.ctx = ctx
	s.mu.Unlock()
	return s.eng.Execute(ctx, j)
}

// TestServiceSweepGeneratesEachProgramOnce: a service sweep shares its
// programs as a RunAll call does. One benchmark under the four runtimes
// needs one program per distinct Table II granularity of its runtime
// classes, at most two, not one per point.
func TestServiceSweepGeneratesEachProgramOnce(t *testing.T) {
	base := core.DefaultConfig(taskrt.Software)
	spy := &ctxSpy{eng: &runner.Engine{Base: base}}
	srv := service.New(&runner.Engine{Base: base, Store: runner.NewStore()}, 4)
	srv.RegisterWorker("spy", spy, 4)
	defer srv.Drain(nil)
	const bench = "blackscholes"
	rows, err := srv.Sweep(context.Background(), service.SubmitRequest{Benchmarks: []string{bench}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	grans := make(map[int64]bool)
	for _, k := range taskrt.Kinds() {
		grans[b.OptimalFor(k.UsesDMU())] = true
	}
	spy.mu.Lock()
	ctx := spy.ctx
	spy.mu.Unlock()
	if len(rows) != len(taskrt.Kinds()) || ctx == nil {
		t.Fatalf("sweep settled %d rows, want %d, all run by the spy worker", len(rows), len(taskrt.Kinds()))
	}
	if got := runner.ProgramsByCores(ctx)[base.Machine.Cores]; got != len(grans) || got > 2 {
		t.Errorf("%d points generated %d programs, want %d", len(rows), got, len(grans))
	}
}

package taskrt

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/task"
	"repro/internal/workloads"
)

// cholesky generates the cholesky benchmark at its Table II granularity (the
// same for every runtime) on the default machine.
func cholesky(t *testing.T) *task.Program {
	t.Helper()
	bench, err := workloads.ByName("cholesky")
	if err != nil {
		t.Fatal(err)
	}
	return bench.GenerateOptimal(false, machine.Default())
}

// TestSharedProgramConcurrentRuns runs one cholesky program under all four
// runtimes, twice each, at the same time, the way the points of one
// runner.Engine.RunAll call share a program. The runs must leave the program
// as they found it and simulate exactly what a run on a program of its own
// does. Run it with -race: it also checks that runs only read the program and
// its cached graph.
func TestSharedProgramConcurrentRuns(t *testing.T) {
	shared := cholesky(t)
	before, err := task.MarshalProgram(shared)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[Kind]int64)
	for _, kind := range Kinds() {
		want[kind] = mustRun(t, cholesky(t), NewConfig(kind)).Cycles
	}

	var wg sync.WaitGroup
	for _, kind := range Kinds() {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Run(shared, NewConfig(kind))
				if err != nil {
					t.Errorf("%s on the shared program: %v", kind, err)
					return
				}
				if res.Cycles != want[kind] {
					t.Errorf("%s on the shared program: %d cycles, a program of its own %d", kind, res.Cycles, want[kind])
				}
			}()
		}
	}
	wg.Wait()

	after, err := task.MarshalProgram(shared)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("concurrent runs changed the shared program's encoding")
	}
}

// TestAllocsPerTask pins the heap allocations of one cholesky run per
// simulated task, on a program whose golden graph is already built. Each
// bound sits less than one allocation per task above the measured count
// (software 1.21, tdm 0.28, carbon 1.43, tasksuperscalar 0.23 on Go 1.24),
// so a new per-task allocation on the create/schedule/execute/finish path
// fails it.
func TestAllocsPerTask(t *testing.T) {
	bounds := map[Kind]float64{Software: 1.6, TDM: 0.7, Carbon: 1.8, TaskSuperscalar: 0.6}
	for _, kind := range Kinds() {
		cfg := NewConfig(kind)
		prog := cholesky(t)
		mustRun(t, prog, cfg) // builds the graph
		allocs := testing.AllocsPerRun(2, func() { mustRun(t, prog, cfg) })
		perTask := allocs / float64(prog.NumTasks())
		if perTask > bounds[kind] {
			t.Errorf("%s: %.2f allocations per task (%.0f for %d tasks), bound %.2f",
				kind, perTask, allocs, prog.NumTasks(), bounds[kind])
		}
	}
}

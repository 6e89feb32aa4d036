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

// TestAllocsPerTask pins the heap allocations per simulated task of a run on
// a program whose golden graph is already built, for two programs:
//   - cholesky, whose cores mostly find work: measured software 0.67, tdm
//     0.23, carbon 0.67 and tasksuperscalar 0.23 on Go 1.24;
//   - one chain of 512 dependent tasks, so at most one task is ready at a
//     time and 31 cores keep finding none: measured software 2.21, tdm 1.49,
//     carbon 2.16 and tasksuperscalar 1.38.
//
// Each bound sits less than one allocation per task above the measured
// count, so a new per-task allocation on the create/schedule/execute/finish
// path fails the cholesky case, and one on the idle path (an acquireTask
// that finds nothing) fails the chain case.
func TestAllocsPerTask(t *testing.T) {
	cases := []struct {
		name   string
		prog   *task.Program
		bounds map[Kind]float64
	}{
		{"cholesky", cholesky(t), map[Kind]float64{Software: 1.1, TDM: 0.7, Carbon: 1.1, TaskSuperscalar: 0.6}},
		{"chain", chainsProgram(1, 512, 5), map[Kind]float64{Software: 2.5, TDM: 1.8, Carbon: 2.5, TaskSuperscalar: 1.7}},
	}
	for _, c := range cases {
		for _, kind := range Kinds() {
			cfg := NewConfig(kind)
			mustRun(t, c.prog, cfg) // builds the graph
			allocs := testing.AllocsPerRun(2, func() { mustRun(t, c.prog, cfg) })
			perTask := allocs / float64(c.prog.NumTasks())
			if perTask > c.bounds[kind] {
				t.Errorf("%s/%s: %.2f allocations per task (%.0f for %d tasks), bound %.2f",
					c.name, kind, perTask, allocs, c.prog.NumTasks(), c.bounds[kind])
			}
		}
	}
}

// Package swdep implements software task-dependence tracking: the data
// structures a conventional task-based runtime system (Nanos++, OmpSs,
// OpenMP 4.0 runtimes) maintains to discover the task dependence graph from
// depend() annotations.
//
// The tracker mirrors the semantics of the DMU (internal/dmu) exactly — the
// two are validated against each other and against the golden graph in
// internal/task — but it has no capacity limits and no hardware cost model.
// The *time* cost of using it is charged by the simulation through
// machine.CostModel (SwTaskAlloc, SwDepMatch, ...); this package only reports
// the operation counts those charges are based on (dependences matched, edges
// inserted, successors woken, dependences released).
package swdep

import (
	"fmt"

	"repro/internal/task"
)

// taskState is the runtime-side record of an in-flight task.
type taskState struct {
	id        task.ID
	numPred   int
	numSucc   int
	succs     []task.ID
	deps      []task.Dep // the task's spec.Deps, shared with its program
	submitted bool
	finished  bool
}

// depState is the per-address dependence record (last writer + readers).
type depState struct {
	lastWriter      task.ID
	lastWriterValid bool
	readers         []task.ID
}

// CreateResult reports the work performed by CreateTask.
type CreateResult struct {
	// DepsMatched is the number of dependence annotations processed.
	DepsMatched int
	// EdgesInserted is the number of TDG edges discovered and linked.
	EdgesInserted int
	// Ready reports whether the task has no unresolved predecessors and is
	// immediately executable.
	Ready bool
	// NumSuccs is the successor count known at creation time.
	NumSuccs int
}

// FinishResult reports the work performed by FinishTask.
type FinishResult struct {
	// NewlyReady lists the successors whose predecessor count reached zero,
	// appended to the buffer the caller passed to FinishTask.
	NewlyReady []Woken
	// SuccessorsWoken is the number of successor updates performed.
	SuccessorsWoken int
	// DepsReleased is the number of dependence records this task was
	// removed from.
	DepsReleased int
}

// Woken is a successor made ready by FinishTask.
type Woken struct {
	ID task.ID
	// NumSuccs is the successor's successor count at wake-up time.
	NumSuccs int
}

// Tracker is the software dependence tracker.
type Tracker struct {
	tasks map[task.ID]*taskState
	deps  map[uint64]*depState

	// freeTasks and freeDeps recycle the records of retired tasks and
	// released addresses, so creating a task stops allocating them once
	// the tracker has seen its peak in-flight state.
	freeTasks []*taskState
	freeDeps  []*depState

	// Counters for diagnostics and tests.
	created  int
	finished int
	edges    int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		tasks: make(map[task.ID]*taskState),
		deps:  make(map[uint64]*depState),
	}
}

// InFlight returns the number of created-but-not-finished tasks.
func (t *Tracker) InFlight() int { return t.created - t.finished }

// EdgesCreated returns the total number of TDG edges discovered.
func (t *Tracker) EdgesCreated() int { return t.edges }

// TrackedDeps returns the number of dependence addresses currently tracked.
func (t *Tracker) TrackedDeps() int { return len(t.deps) }

// CreateTask registers a task and matches all of its dependence annotations
// in one step (the software runtime performs creation and matching in the
// same critical section). The returned result drives the simulation's cost
// charging and, if Ready is true, the task can be handed to the scheduler
// immediately.
func (t *Tracker) CreateTask(spec *task.Spec) (CreateResult, error) {
	if _, exists := t.tasks[spec.ID]; exists {
		return CreateResult{}, fmt.Errorf("swdep: task %d already created", spec.ID)
	}
	var ts *taskState
	if n := len(t.freeTasks); n > 0 {
		ts = t.freeTasks[n-1]
		t.freeTasks = t.freeTasks[:n-1]
	} else {
		ts = new(taskState)
	}
	*ts = taskState{id: spec.ID, succs: ts.succs[:0], deps: spec.Deps}
	t.tasks[spec.ID] = ts
	t.created++

	res := CreateResult{DepsMatched: len(spec.Deps)}
	for _, d := range spec.Deps {
		ds := t.deps[d.Addr]
		if ds == nil {
			if n := len(t.freeDeps); n > 0 {
				ds = t.freeDeps[n-1]
				t.freeDeps = t.freeDeps[:n-1]
			} else {
				ds = new(depState)
			}
			*ds = depState{lastWriter: task.NoTask, readers: ds.readers[:0]}
			t.deps[d.Addr] = ds
		}
		if ds.lastWriterValid && ds.lastWriter != spec.ID {
			t.addEdge(ds.lastWriter, ts)
			res.EdgesInserted++
		}
		if d.Dir.IsRead() {
			ds.readers = append(ds.readers, spec.ID)
			continue
		}
		for _, r := range ds.readers {
			if r != spec.ID {
				t.addEdge(r, ts)
				res.EdgesInserted++
			}
		}
		ds.readers = ds.readers[:0]
		ds.lastWriter = spec.ID
		ds.lastWriterValid = true
	}
	ts.submitted = true
	res.Ready = ts.numPred == 0
	res.NumSuccs = ts.numSucc
	return res, nil
}

func (t *Tracker) addEdge(from task.ID, to *taskState) {
	pred := t.tasks[from]
	if pred == nil || pred.finished {
		// The predecessor already retired; its output is available, so no
		// edge is needed. This mirrors the DMU, which frees dependence
		// state when the last writer finishes and no readers remain.
		return
	}
	pred.succs = append(pred.succs, to.id)
	pred.numSucc++
	to.numPred++
	t.edges++
}

// NumSuccs returns the current successor count of an in-flight task.
func (t *Tracker) NumSuccs(id task.ID) int {
	ts := t.tasks[id]
	if ts == nil {
		return 0
	}
	return ts.numSucc
}

// FinishTask retires a task: successors lose one predecessor (those reaching
// zero are appended to woken[:0] and returned as newly ready), and the task
// is detached from the dependence records it participated in. Records with
// no remaining state are deleted, bounding the tracker's footprint like the
// DMU's Algorithm 2. The caller owns woken, so passing back the previous
// NewlyReady reuses its array once the caller is done with it.
func (t *Tracker) FinishTask(id task.ID, woken []Woken) (FinishResult, error) {
	ts := t.tasks[id]
	if ts == nil {
		return FinishResult{}, fmt.Errorf("swdep: finish of unknown task %d", id)
	}
	if ts.finished {
		return FinishResult{}, fmt.Errorf("swdep: task %d finished twice", id)
	}
	ts.finished = true
	t.finished++

	res := FinishResult{NewlyReady: woken[:0]}
	for _, s := range ts.succs {
		succ := t.tasks[s]
		succ.numPred--
		res.SuccessorsWoken++
		if succ.numPred == 0 {
			res.NewlyReady = append(res.NewlyReady, Woken{ID: s, NumSuccs: succ.numSucc})
		}
	}
	for _, d := range ts.deps {
		addr := d.Addr
		ds := t.deps[addr]
		if ds == nil {
			continue
		}
		res.DepsReleased++
		for i, r := range ds.readers {
			if r == id {
				ds.readers = append(ds.readers[:i], ds.readers[i+1:]...)
				break
			}
		}
		if ds.lastWriterValid && ds.lastWriter == id {
			ds.lastWriterValid = false
		}
		if !ds.lastWriterValid && len(ds.readers) == 0 {
			delete(t.deps, addr)
			t.freeDeps = append(t.freeDeps, ds)
		}
	}
	delete(t.tasks, id)
	t.freeTasks = append(t.freeTasks, ts)
	return res, nil
}

// Quiescent reports whether the tracker holds no in-flight state.
func (t *Tracker) Quiescent() bool {
	return len(t.tasks) == 0 && len(t.deps) == 0
}

package taskrt

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/task"
)

// backend abstracts how a runtime system implements dependence tracking and
// ready-task management. The master and worker thread loops are shared; only
// the three runtime phases differ between systems.
type backend interface {
	// createTask performs the task-creation phase (allocation, dependence
	// registration, publication) for spec on the calling thread.
	createTask(tc *threadCtx, spec *task.Spec)
	// finishTask performs the task-finalization phase after spec's body
	// executed on the calling thread's core.
	finishTask(tc *threadCtx, spec *task.Spec)
	// acquireTask performs one scheduling attempt for the calling thread,
	// returning nil when no task is currently available.
	acquireTask(tc *threadCtx) *sched.ReadyTask
	// pending reports whether acquireTask could currently return a task.
	// It must be consistent with acquireTask to avoid livelock: if pending
	// returns true, an immediate acquireTask must be able to succeed.
	pending() bool
	// fillResult adds backend-specific statistics to the run result.
	fillResult(res *Result)
}

// newBackend builds the backend selected by the configuration.
func newBackend(rs *runState) (backend, error) {
	switch rs.cfg.Runtime {
	case Software:
		return newSoftwareBackend(rs)
	case TDM:
		return newTDMBackend(rs)
	case Carbon:
		return newCarbonBackend(rs)
	case TaskSuperscalar:
		return newTaskSSBackend(rs)
	default:
		return nil, fmt.Errorf("taskrt: unknown runtime kind %q", rs.cfg.Runtime)
	}
}

// pushToPool inserts a ready task into a software scheduler pool, charging
// the push cost and waking one idle thread.
//
//simlint:hotpath
func pushToPool(tc *threadCtx, pool sched.Scheduler, rt *sched.ReadyTask) {
	tc.charge(stats.Sched, tc.rs.costs.SchedPush)
	pool.Push(rt)
	tc.rs.schedPushes++
	tc.rs.notifyWork(1)
}

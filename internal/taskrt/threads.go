package taskrt

import (
	"repro/internal/sched"
	"repro/internal/stats"
)

// masterThread runs the master: it executes the sequential parts of the
// program, creates the tasks of each parallel region in program order, and at
// every region barrier adopts the behaviour of a worker until all created
// tasks have executed (Section II-A and III-D of the paper).
func (rs *runState) masterThread(tc *threadCtx) {
	for _, region := range rs.prog.Regions {
		if region.SequentialCycles > 0 {
			// Sequential sections execute on the master while the
			// workers sit idle.
			tc.chargeLabeled(stats.Exec, region.SequentialCycles, "sequential")
		}
		for _, spec := range region.Tasks {
			rs.checkCancel(tc)
			rs.backend.createTask(tc, spec)
			rs.noteCreated(spec)
		}
		// Region barrier: help execute tasks until the region drains.
		tc.charge(stats.Sched, rs.costs.BarrierCheck)
		for !rs.allExecuted() {
			if !rs.workOnce(tc) {
				tc.idleWait(func() bool {
					return rs.backend.pending() || rs.allExecuted()
				})
			}
		}
	}
	rs.programDone = true
	rs.work.Broadcast()
}

// workerThread runs one worker core: an endless schedule/execute/finish loop
// that idles when no task is available and exits when the program completes.
func (rs *runState) workerThread(tc *threadCtx) {
	for !rs.programDone {
		if !rs.workOnce(tc) {
			tc.idleWait(func() bool {
				return rs.backend.pending() || rs.programDone
			})
		}
	}
}

// workOnce tries to acquire, execute and finish one task. It returns false if
// no task was available. It is the task-boundary cancellation point of every
// simulated thread: a cancelled run stops here before acquiring another task.
//
//simlint:hotpath
func (rs *runState) workOnce(tc *threadCtx) bool {
	rs.checkCancel(tc)
	rt := rs.backend.acquireTask(tc)
	if rt == nil {
		return false
	}
	rs.executeTask(tc, rt)
	rs.backend.finishTask(tc, rt.Spec)
	rs.noteExecuted(tc.core, rt.Spec)
	return true
}

// executeTask charges the (locality-adjusted) task body duration to the
// executing core and validates the dependence order.
//
//simlint:hotpath
func (rs *runState) executeTask(tc *threadCtx, rt *sched.ReadyTask) {
	spec := rt.Spec
	if rs.validator != nil {
		rs.validator.Start(spec.ID)
	}
	duration := rs.locality.AdjustedDuration(tc.core, spec)
	tc.chargeLabeled(stats.Exec, duration, spec.Kernel)
	rs.locality.RecordExecution(tc.core, spec)
	if rs.validator != nil {
		rs.validator.Finish(spec.ID)
	}
}

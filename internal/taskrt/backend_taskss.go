package taskrt

import (
	"repro/internal/dmu"
	"repro/internal/hwsched"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/task"
)

// taskSSBackend models Task Superscalar: both dependence tracking and
// scheduling happen in hardware. Dependence tracking reuses the DMU model
// (the paper's Task Superscalar configuration is modelled with the same
// in-flight capacity, Section IV-A), and scheduling is the DMU's hardware
// FIFO Ready Queue accessed directly by the workers, so there is no software
// pool and no policy choice.
type taskSSBackend struct {
	dmuPort

	dequeues uint64
	maxReady int
}

func newTaskSSBackend(rs *runState) (*taskSSBackend, error) {
	return &taskSSBackend{dmuPort: newDMUPort(rs, "taskss-port")}, nil
}

//simlint:hotpath
func (b *taskSSBackend) createTask(tc *threadCtx, spec *task.Spec) {
	b.publish(b.registerTask(tc, spec))
}

//simlint:hotpath
func (b *taskSSBackend) finishTask(tc *threadCtx, spec *task.Spec) {
	b.publish(b.retireTask(tc, spec))
}

// publish wakes one idle thread per task the operation made ready, which the
// workers then take straight from the Ready Queue, and tracks the queue's
// peak length.
func (b *taskSSBackend) publish(res dmu.OpResult) {
	if res.Ready > 0 {
		b.rs.notifyWork(res.Ready)
	}
	if n := b.unit.ReadyCount(); n > b.maxReady {
		b.maxReady = n
	}
}

//simlint:hotpath
func (b *taskSSBackend) acquireTask(tc *threadCtx) *sched.ReadyTask {
	// The hardware scheduler hands out tasks directly from the Ready
	// Queue; the cost is a hardware queue access rather than a software
	// scheduling decision.
	tc.charge(stats.Sched, b.rs.costs.HwQueueDequeue)
	_, rt, ok := b.issue(tc, stats.Sched, opGetReadyTask, 0, task.Dep{})
	if !ok {
		return nil
	}
	b.dequeues++
	return b.rs.readyFromSpec(b.rs.specOf(rt.DescAddr), rt.NumSuccs, sched.NoAffinity)
}

func (b *taskSSBackend) pending() bool { return b.unit.ReadyCount() > 0 }

func (b *taskSSBackend) fillResult(res *Result) {
	b.dmuPort.fillResult(res)
	res.HardwareQueue = &hwsched.GlobalStats{
		Enqueues:  res.DMU.Ops.ReadyProduced,
		Dequeues:  b.dequeues,
		MaxQueued: b.maxReady,
	}
}

package taskrt

import (
	"fmt"

	"repro/internal/hwsched"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/swdep"
	"repro/internal/task"
)

// carbonQueueCapacity bounds each per-core hardware queue. Carbon spills to
// memory when a queue overflows; the model uses a large capacity and counts
// overflows instead, which never trigger for the evaluated programs.
const carbonQueueCapacity = 1 << 20

// carbonBackend models Carbon: task dependence management stays in software
// (same costs as the software runtime) while ready tasks live in per-core
// hardware queues with a fixed FIFO-plus-stealing policy, so scheduling is
// nearly free but cannot be customised.
type carbonBackend struct {
	rs      *runState
	tracker *swdep.Tracker
	queues  *hwsched.CarbonQueues
}

func newCarbonBackend(rs *runState) (*carbonBackend, error) {
	return &carbonBackend{
		rs:      rs,
		tracker: swdep.NewTracker(),
		queues:  hwsched.NewCarbonQueues(rs.cfg.Machine.Cores, carbonQueueCapacity),
	}, nil
}

func (b *carbonBackend) enqueue(tc *threadCtx, spec *task.Spec, numSuccs int) {
	tc.charge(stats.Sched, b.rs.costs.HwQueueEnqueue)
	if !b.queues.Enqueue(tc.core, hwsched.Entry{DescAddr: b.rs.descOf(spec.ID), NumSuccs: numSuccs}) {
		panic(fmt.Sprintf("taskrt: carbon queue overflow on core %d", tc.core))
	}
	b.rs.notifyWork(1)
}

func (b *carbonBackend) createTask(tc *threadCtx, spec *task.Spec) {
	costs := b.rs.costs
	tc.charge(stats.Deps, costs.SwTaskAlloc+int64(len(spec.Deps))*costs.SwDepMatch)
	res, err := b.tracker.CreateTask(spec)
	if err != nil {
		panic(fmt.Sprintf("taskrt: carbon create: %v", err))
	}
	tc.charge(stats.Deps, int64(res.EdgesInserted)*costs.SwEdgeInsert+costs.SwSubmit)
	if res.Ready {
		b.enqueue(tc, spec, res.NumSuccs)
	}
}

func (b *carbonBackend) finishTask(tc *threadCtx, spec *task.Spec) {
	costs := b.rs.costs
	tc.charge(stats.Deps, costs.SwFinishBase)
	res, err := b.tracker.FinishTask(spec.ID)
	if err != nil {
		panic(fmt.Sprintf("taskrt: carbon finish: %v", err))
	}
	tc.charge(stats.Deps,
		int64(res.SuccessorsWoken)*costs.SwWakeSuccessor+int64(res.DepsReleased)*costs.SwDepRelease)
	for i, id := range res.NewlyReady {
		b.enqueue(tc, b.rs.specs[id], res.NumSuccsOf[i])
	}
}

func (b *carbonBackend) acquireTask(tc *threadCtx) *sched.ReadyTask {
	tc.charge(stats.Sched, b.rs.costs.HwQueueDequeue)
	entry, ok := b.queues.Dequeue(tc.core)
	if !ok {
		return nil
	}
	return b.rs.readyFromSpec(b.rs.specOf(entry.DescAddr), entry.NumSuccs, sched.NoAffinity)
}

func (b *carbonBackend) pending() bool { return b.queues.Len() > 0 }

func (b *carbonBackend) fillResult(res *Result) {
	st := b.queues.Stats()
	res.CarbonQueues = &st
}

package taskrt

import (
	"errors"
	"fmt"

	"repro/internal/dmu"
	"repro/internal/hwsched"
	"repro/internal/sched"
	"repro/internal/sim"
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
	rs   *runState
	unit *dmu.DMU
	port *sim.Resource

	dequeues uint64
	maxReady int
}

func newTaskSSBackend(rs *runState) (*taskSSBackend, error) {
	return &taskSSBackend{
		rs:   rs,
		unit: dmu.New(rs.cfg.DMU),
		port: rs.eng.NewResource("taskss-port"),
	}, nil
}

func (b *taskSSBackend) issue(tc *threadCtx, phase stats.Phase, op func() (dmu.OpResult, error)) dmu.OpResult {
	start := int64(tc.proc.Now())
	b.port.Acquire(tc.proc)
	tc.account(phase, start, int64(tc.proc.Now()))
	res, err := op()
	if err != nil {
		b.port.Release(tc.proc)
		panic(fmt.Sprintf("taskrt: Task Superscalar operation failed: %v", err))
	}
	tc.charge(phase, b.rs.costs.TdmIssue+res.Cycles)
	b.port.Release(tc.proc)
	return res
}

func (b *taskSSBackend) issueBlocking(tc *threadCtx, phase stats.Phase, can func() bool, op func() (dmu.OpResult, error)) dmu.OpResult {
	for {
		if !can() {
			b.rs.assistUntil(tc, can)
		}
		start := int64(tc.proc.Now())
		b.port.Acquire(tc.proc)
		tc.account(phase, start, int64(tc.proc.Now()))
		res, err := op()
		if err != nil {
			b.port.Release(tc.proc)
			if errors.Is(err, dmu.ErrNoSpace) {
				continue
			}
			panic(fmt.Sprintf("taskrt: Task Superscalar operation failed: %v", err))
		}
		tc.charge(phase, b.rs.costs.TdmIssue+res.Cycles)
		b.port.Release(tc.proc)
		return res
	}
}

func (b *taskSSBackend) createTask(tc *threadCtx, spec *task.Spec) {
	desc := b.rs.descOf(spec.ID)
	tc.charge(stats.Deps, b.rs.costs.TdmTaskAlloc)
	b.issueBlocking(tc, stats.Deps,
		func() bool { return b.unit.CanCreateTask(desc) },
		func() (dmu.OpResult, error) { return b.unit.CreateTask(desc) })
	for _, d := range spec.Deps {
		d := d
		b.issueBlocking(tc, stats.Deps,
			func() bool { return b.unit.CanAddDependence(desc, d.Addr, d.Size, d.Dir) },
			func() (dmu.OpResult, error) { return b.unit.AddDependence(desc, d.Addr, d.Size, d.Dir) })
	}
	res := b.issue(tc, stats.Deps, func() (dmu.OpResult, error) { return b.unit.SubmitTask(desc) })
	if res.Ready > 0 {
		b.rs.notifyWork(res.Ready)
	}
	if n := b.unit.ReadyCount(); n > b.maxReady {
		b.maxReady = n
	}
}

func (b *taskSSBackend) finishTask(tc *threadCtx, spec *task.Spec) {
	desc := b.rs.descOf(spec.ID)
	tc.charge(stats.Deps, b.rs.costs.TdmFinishBase)
	res := b.issue(tc, stats.Deps, func() (dmu.OpResult, error) { return b.unit.FinishTask(desc) })
	b.rs.capacity.Broadcast()
	if res.Ready > 0 {
		b.rs.notifyWork(res.Ready)
	}
	if n := b.unit.ReadyCount(); n > b.maxReady {
		b.maxReady = n
	}
}

func (b *taskSSBackend) acquireTask(tc *threadCtx) *sched.ReadyTask {
	// The hardware scheduler hands out tasks directly from the Ready
	// Queue; the cost is a hardware queue access rather than a software
	// scheduling decision.
	tc.charge(stats.Sched, b.rs.costs.HwQueueDequeue)
	var rt dmu.ReadyTask
	var ok bool
	b.issue(tc, stats.Sched, func() (dmu.OpResult, error) {
		var res dmu.OpResult
		rt, res, ok = b.unit.GetReadyTask()
		return res, nil
	})
	if !ok {
		return nil
	}
	b.dequeues++
	return b.rs.readyFromSpec(b.rs.specOf(rt.DescAddr), rt.NumSuccs, sched.NoAffinity)
}

func (b *taskSSBackend) pending() bool { return b.unit.ReadyCount() > 0 }

func (b *taskSSBackend) dmuOccupancy() (int, int) {
	return b.unit.InFlightTasks(), b.unit.InFlightDeps()
}

func (b *taskSSBackend) fillResult(res *Result) {
	snap := b.unit.Snapshot()
	res.DMU = &snap
	res.HardwareQueue = &hwsched.GlobalStats{
		Enqueues:  snap.Ops.ReadyProduced,
		Dequeues:  b.dequeues,
		MaxQueued: b.maxReady,
	}
}

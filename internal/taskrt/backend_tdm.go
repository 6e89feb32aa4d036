package taskrt

import (
	"errors"
	"fmt"

	"repro/internal/dmu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
)

// tdmBackend is the paper's proposal: the runtime offloads dependence
// tracking to the DMU through the TDM ISA instructions and keeps scheduling
// in software with a pluggable policy.
type tdmBackend struct {
	rs   *runState
	unit *dmu.DMU
	port *sim.Resource
	pool sched.Scheduler
}

func newTDMBackend(rs *runState) (*tdmBackend, error) {
	pool, err := sched.New(rs.cfg.Scheduler, rs.cfg.Machine.Cores)
	if err != nil {
		return nil, err
	}
	return &tdmBackend{
		rs:   rs,
		unit: dmu.New(rs.cfg.DMU),
		port: rs.eng.NewResource("dmu-port"),
		pool: pool,
	}, nil
}

// issue sends one TDM instruction to the DMU: the issuing core stalls for the
// instruction overhead plus the DMU operation latency (the instructions have
// barrier semantics), and the DMU port serializes concurrent instructions.
// Time spent waiting for the port is accounted to the same phase.
func (b *tdmBackend) issue(tc *threadCtx, phase stats.Phase, op func() (dmu.OpResult, error)) dmu.OpResult {
	start := int64(tc.proc.Now())
	b.port.Acquire(tc.proc)
	tc.account(phase, start, int64(tc.proc.Now()))
	res, err := op()
	if err != nil {
		b.port.Release(tc.proc)
		panic(fmt.Sprintf("taskrt: TDM instruction failed: %v", err))
	}
	tc.charge(phase, b.rs.costs.TdmIssue+res.Cycles)
	b.port.Release(tc.proc)
	return res
}

// issueBlocking is issue for allocating instructions (create_task,
// add_dependence): when a DMU structure is full, the instruction blocks until
// an in-flight task finishes and frees entries (Section III-D). The wait is
// accounted to the creation phase.
func (b *tdmBackend) issueBlocking(tc *threadCtx, phase stats.Phase, can func() bool, op func() (dmu.OpResult, error)) dmu.OpResult {
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
				// The pre-check was conservative but another thread
				// raced us to the space; wait for more capacity.
				continue
			}
			panic(fmt.Sprintf("taskrt: TDM instruction failed: %v", err))
		}
		tc.charge(phase, b.rs.costs.TdmIssue+res.Cycles)
		b.port.Release(tc.proc)
		return res
	}
}

func (b *tdmBackend) createTask(tc *threadCtx, spec *task.Spec) {
	costs := b.rs.costs
	desc := b.rs.descOf(spec.ID)
	// Task descriptor allocation stays in software but is much lighter
	// than the software runtime's full bookkeeping.
	tc.charge(stats.Deps, costs.TdmTaskAlloc)
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
		b.drainReady(tc, sched.NoAffinity)
	}
}

func (b *tdmBackend) finishTask(tc *threadCtx, spec *task.Spec) {
	costs := b.rs.costs
	desc := b.rs.descOf(spec.ID)
	tc.charge(stats.Deps, costs.TdmFinishBase)
	b.issue(tc, stats.Deps, func() (dmu.OpResult, error) { return b.unit.FinishTask(desc) })
	// Retiring the task freed DMU entries; the master may be stalled on
	// them.
	b.rs.capacity.Broadcast()
	// Request the successors that have just become ready and hand them to
	// the software scheduler (Section III-C3).
	b.drainReady(tc, tc.core)
}

// drainReady pulls every ready task out of the DMU's Ready Queue into the
// software pool. affinity tags the tasks with the core that produced them so
// locality-aware policies can exploit it.
func (b *tdmBackend) drainReady(tc *threadCtx, affinity int) {
	for {
		var rt dmu.ReadyTask
		var ok bool
		b.issue(tc, stats.Sched, func() (dmu.OpResult, error) {
			var res dmu.OpResult
			rt, res, ok = b.unit.GetReadyTask()
			return res, nil
		})
		if !ok {
			return
		}
		spec := b.rs.specOf(rt.DescAddr)
		pushToPool(tc, b.pool, b.rs.readyFromSpec(spec, rt.NumSuccs, affinity))
	}
}

func (b *tdmBackend) acquireTask(tc *threadCtx) *sched.ReadyTask {
	tc.charge(stats.Sched, b.rs.costs.SchedPop)
	b.rs.schedPops++
	return b.pool.Pop(tc.core)
}

func (b *tdmBackend) pending() bool { return b.pool.Len() > 0 }

func (b *tdmBackend) dmuOccupancy() (int, int) {
	return b.unit.InFlightTasks(), b.unit.InFlightDeps()
}

func (b *tdmBackend) fillResult(res *Result) {
	snap := b.unit.Snapshot()
	res.DMU = &snap
}

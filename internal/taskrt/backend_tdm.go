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

// tdmOp is the op code of a TDM instruction (Section III-C).
type tdmOp uint8

const (
	opCreateTask tdmOp = iota
	opAddDependence
	opSubmitTask
	opFinishTask
	opGetReadyTask
)

// dmuPort is a DMU behind its instruction port: the TDM instruction protocol
// shared by the TDM backend and the Task Superscalar backend, which differ
// only in where the tasks the DMU makes ready go.
type dmuPort struct {
	rs   *runState
	unit *dmu.DMU
	port *sim.Resource
}

func newDMUPort(rs *runState, name string) dmuPort {
	return dmuPort{rs: rs, unit: dmu.New(rs.cfg.DMU), port: rs.eng.NewResource(name)}
}

// issue executes one TDM instruction on the calling thread: desc names the
// task and dep is add_dependence's operand. The core waits for the DMU port,
// which serializes concurrent instructions, then stalls for the instruction
// overhead plus the DMU operation latency (the instructions have barrier
// semantics); both are accounted to phase. ok reports whether
// get_ready_task found a ready task. create_task and add_dependence allocate
// DMU entries: while the DMU is full they stall (see stall).
func (p *dmuPort) issue(tc *threadCtx, phase stats.Phase, op tdmOp, desc uint64, dep task.Dep) (res dmu.OpResult, rt dmu.ReadyTask, ok bool) {
	for {
		if !p.fits(op, desc, dep) {
			p.stall(tc, op, desc, dep)
		}
		start := int64(tc.proc.Now())
		p.port.Acquire(tc.proc)
		tc.account(phase, start, int64(tc.proc.Now()))
		var err error
		switch op {
		case opCreateTask:
			res, err = p.unit.CreateTask(desc)
		case opAddDependence:
			res, err = p.unit.AddDependence(desc, dep.Addr, dep.Size, dep.Dir)
		case opSubmitTask:
			res, err = p.unit.SubmitTask(desc)
		case opFinishTask:
			res, err = p.unit.FinishTask(desc)
		case opGetReadyTask:
			rt, res, ok = p.unit.GetReadyTask()
		}
		if err != nil {
			p.port.Release(tc.proc)
			if (op == opCreateTask || op == opAddDependence) && errors.Is(err, dmu.ErrNoSpace) {
				// The pre-check was conservative but another thread
				// raced us to the space; wait for more capacity.
				continue
			}
			panic(fmt.Sprintf("taskrt: TDM instruction failed: %v", err))
		}
		tc.charge(phase, p.rs.costs.TdmIssue+res.Cycles)
		p.port.Release(tc.proc)
		return res, rt, ok
	}
}

// fits is the conservative pre-check of an allocating instruction: whether
// the DMU has room for it now. Other instructions always fit. The DMU counts
// the alias-table lookups of a check among its accesses, which the energy
// model charges, so every call is part of the run's result.
func (p *dmuPort) fits(op tdmOp, desc uint64, dep task.Dep) bool {
	switch op {
	case opCreateTask:
		return p.unit.CanCreateTask(desc)
	case opAddDependence:
		return p.unit.CanAddDependence(desc, dep.Addr, dep.Size, dep.Dir)
	}
	return true
}

// stall is the task-throttling policy while the DMU is full (Section III-D):
// instead of idling on the blocked instruction, the thread executes ready
// tasks, which retire in-flight tasks and free entries, until op fits. Time
// spent waiting for capacity while no task is ready is accounted to DEPS,
// matching the paper's treatment of creation-side stalls.
func (p *dmuPort) stall(tc *threadCtx, op tdmOp, desc uint64, dep task.Dep) {
	rs := p.rs
	for !p.fits(op, desc, dep) {
		if rs.workOnce(tc) {
			continue
		}
		start := int64(tc.proc.Now())
		for !p.fits(op, desc, dep) && !rs.backend.pending() {
			rs.capacity.Wait(tc.proc)
		}
		tc.account(stats.Deps, start, int64(tc.proc.Now()))
	}
}

// registerTask performs the creation phase of spec on the DMU: descriptor
// allocation in software, then create_task, one add_dependence per
// dependence and submit_task, whose result it returns.
func (p *dmuPort) registerTask(tc *threadCtx, spec *task.Spec) dmu.OpResult {
	desc := p.rs.descOf(spec.ID)
	// Task descriptor allocation stays in software but is much lighter
	// than the software runtime's full bookkeeping.
	tc.charge(stats.Deps, p.rs.costs.TdmTaskAlloc)
	p.issue(tc, stats.Deps, opCreateTask, desc, task.Dep{})
	for _, d := range spec.Deps {
		p.issue(tc, stats.Deps, opAddDependence, desc, d)
	}
	res, _, _ := p.issue(tc, stats.Deps, opSubmitTask, desc, task.Dep{})
	return res
}

// retireTask issues finish_task for spec and wakes the threads stalled on
// the entries it freed. It returns finish_task's result.
func (p *dmuPort) retireTask(tc *threadCtx, spec *task.Spec) dmu.OpResult {
	tc.charge(stats.Deps, p.rs.costs.TdmFinishBase)
	res, _, _ := p.issue(tc, stats.Deps, opFinishTask, p.rs.descOf(spec.ID), task.Dep{})
	p.rs.capacity.Broadcast()
	return res
}

func (p *dmuPort) dmuOccupancy() (int, int) {
	return p.unit.InFlightTasks(), p.unit.InFlightDeps()
}

func (p *dmuPort) fillResult(res *Result) {
	snap := p.unit.Snapshot()
	res.DMU = &snap
}

// tdmBackend is the paper's proposal: the runtime offloads dependence
// tracking to the DMU through the TDM ISA instructions and keeps scheduling
// in software with a pluggable policy.
type tdmBackend struct {
	dmuPort
	pool sched.Scheduler
}

func newTDMBackend(rs *runState) (*tdmBackend, error) {
	pool, err := sched.New(rs.cfg.Scheduler, rs.cfg.Machine.Cores)
	if err != nil {
		return nil, err
	}
	return &tdmBackend{dmuPort: newDMUPort(rs, "dmu-port"), pool: pool}, nil
}

//simlint:hotpath
func (b *tdmBackend) createTask(tc *threadCtx, spec *task.Spec) {
	if res := b.registerTask(tc, spec); res.Ready > 0 {
		b.drainReady(tc, sched.NoAffinity)
	}
}

//simlint:hotpath
func (b *tdmBackend) finishTask(tc *threadCtx, spec *task.Spec) {
	b.retireTask(tc, spec)
	// Request the successors that have just become ready and hand them to
	// the software scheduler (Section III-C3).
	b.drainReady(tc, tc.core)
}

// drainReady pulls every ready task out of the DMU's Ready Queue into the
// software pool. affinity tags the tasks with the core that produced them so
// locality-aware policies can exploit it.
func (b *tdmBackend) drainReady(tc *threadCtx, affinity int) {
	for {
		_, rt, ok := b.issue(tc, stats.Sched, opGetReadyTask, 0, task.Dep{})
		if !ok {
			return
		}
		spec := b.rs.specOf(rt.DescAddr)
		pushToPool(tc, b.pool, b.rs.readyFromSpec(spec, rt.NumSuccs, affinity))
	}
}

//simlint:hotpath
func (b *tdmBackend) acquireTask(tc *threadCtx) *sched.ReadyTask {
	tc.charge(stats.Sched, b.rs.costs.SchedPop)
	b.rs.schedPops++
	return b.pool.Pop(tc.core)
}

func (b *tdmBackend) pending() bool { return b.pool.Len() > 0 }

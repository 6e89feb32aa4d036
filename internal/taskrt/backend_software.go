package taskrt

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/swdep"
	"repro/internal/task"
)

// softwareBackend is the pure software runtime: dependence tracking with
// internal/swdep (charged at software cost) and scheduling with a software
// policy from internal/sched. It is the paper's baseline.
type softwareBackend struct {
	rs      *runState
	tracker *swdep.Tracker
	pool    sched.Scheduler
}

func newSoftwareBackend(rs *runState) (*softwareBackend, error) {
	pool, err := sched.New(rs.cfg.Scheduler, rs.cfg.Machine.Cores)
	if err != nil {
		return nil, err
	}
	return &softwareBackend{rs: rs, tracker: swdep.NewTracker(), pool: pool}, nil
}

//simlint:hotpath
func (b *softwareBackend) createTask(tc *threadCtx, spec *task.Spec) {
	costs := b.rs.costs
	// Descriptor allocation plus per-dependence matching against the
	// runtime's address map.
	tc.charge(stats.Deps, costs.SwTaskAlloc+int64(len(spec.Deps))*costs.SwDepMatch)
	res, err := b.tracker.CreateTask(spec)
	if err != nil {
		panic(fmt.Sprintf("taskrt: software create: %v", err))
	}
	// Linking the discovered edges and publishing the task.
	tc.charge(stats.Deps, int64(res.EdgesInserted)*costs.SwEdgeInsert+costs.SwSubmit)
	if res.Ready {
		pushToPool(tc, b.pool, b.rs.readyFromSpec(spec, res.NumSuccs, sched.NoAffinity))
	}
}

//simlint:hotpath
func (b *softwareBackend) finishTask(tc *threadCtx, spec *task.Spec) {
	costs := b.rs.costs
	tc.charge(stats.Deps, costs.SwFinishBase)
	res, err := b.tracker.FinishTask(spec.ID, tc.woken)
	if err != nil {
		panic(fmt.Sprintf("taskrt: software finish: %v", err))
	}
	tc.woken = res.NewlyReady
	tc.charge(stats.Deps,
		int64(res.SuccessorsWoken)*costs.SwWakeSuccessor+int64(res.DepsReleased)*costs.SwDepRelease)
	for _, w := range res.NewlyReady {
		pushToPool(tc, b.pool, b.rs.readyFromSpec(b.rs.specs[w.ID], w.NumSuccs, tc.core))
	}
}

//simlint:hotpath
func (b *softwareBackend) acquireTask(tc *threadCtx) *sched.ReadyTask {
	tc.charge(stats.Sched, b.rs.costs.SchedPop)
	b.rs.schedPops++
	return b.pool.Pop(tc.core)
}

func (b *softwareBackend) pending() bool { return b.pool.Len() > 0 }

func (b *softwareBackend) fillResult(res *Result) {}

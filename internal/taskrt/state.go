package taskrt

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/trace"
)

// descriptorBase is the synthetic heap address of the first task descriptor.
const descriptorBase = 0x7f40_0000_0000

// descriptorStride is the distance between consecutive task descriptors. Real
// runtimes allocate descriptors of a few hundred bytes plus allocator
// metadata; the stride is deliberately not a multiple of the TAT's set span
// (set count x 64 bytes) so descriptors spread over all TAT sets, as heap
// addresses do in practice.
const descriptorStride = 320

// runState is the shared state of one simulated run.
type runState struct {
	eng  *sim.Engine
	cfg  Config
	prog *task.Program

	costs machine.CostModel

	backend backend

	// specs lists the tasks in program order, so specs[id] has ID id.
	specs []*task.Spec
	// ready holds, by task ID, the scheduler's view of each task once it
	// is ready (see readyFromSpec).
	ready []sched.ReadyTask

	// Progress counters. created counts tasks the master has fully
	// registered; executed counts tasks whose finish phase completed.
	created  int
	executed int
	// programDone is set by the master after the last region's barrier.
	programDone bool

	// cancelled, when non-nil, is polled at task boundaries; the first true
	// halts the run with the error cancelCause returns. halting latches the
	// halt so only the first observer stops the engine. Both are nil for
	// uncancellable runs (the common case), which costs nothing.
	cancelled   func() bool
	cancelCause func() error
	halting     bool

	// work is signalled when ready tasks may be available or when the
	// region/program state changes; capacity is signalled when hardware
	// structures free entries.
	work     *sim.Signal
	capacity *sim.Signal

	locality  *machine.LocalityTracker
	validator *task.OrderValidator
	timeline  *trace.Timeline

	// Queue-to-retire latency and occupancy-over-time telemetry: submitAt
	// records (by task ID) the cycle the master finished registering each
	// task, latencies collects submit→retire spans, and occupancy samples
	// in-flight state at every retirement. dmuOcc is the backend's DMU
	// occupancy reporter when the runtime tracks dependences in hardware.
	submitAt  []int64
	latencies []int64
	occupancy *stats.OccupancySeries
	dmuOcc    dmuOccupancy

	threads []*threadCtx

	executedByCore []int
	schedPushes    int
	schedPops      int
}

func newRunState(prog *task.Program, cfg Config) (*runState, error) {
	eng := sim.NewEngine()
	rs := &runState{
		eng:            eng,
		cfg:            cfg,
		prog:           prog,
		costs:          cfg.Machine.Costs,
		specs:          prog.Tasks(),
		ready:          make([]sched.ReadyTask, prog.NumTasks()),
		work:           eng.NewSignal("work"),
		capacity:       eng.NewSignal("capacity"),
		locality:       machine.NewLocalityTracker(cfg.Machine.Cores, cfg.Machine.Locality),
		executedByCore: make([]int, cfg.Machine.Cores),
		submitAt:       make([]int64, prog.NumTasks()),
		latencies:      make([]int64, 0, prog.NumTasks()),
		occupancy:      stats.NewOccupancySeries(stats.DefaultOccupancyCap),
	}
	if cfg.ValidateOrder {
		rs.validator = task.NewOrderValidator(prog.Graph())
	}
	if cfg.RecordTimeline {
		rs.timeline = trace.New(cfg.Machine.Cores)
	}
	b, err := newBackend(rs)
	if err != nil {
		return nil, err
	}
	rs.backend = b
	rs.dmuOcc, _ = b.(dmuOccupancy)
	return rs, nil
}

// dmuOccupancy is implemented by backends whose dependence tracking lives in
// hardware; it reports the DMU's currently occupied task and dependence
// entries for the occupancy-over-time series.
type dmuOccupancy interface {
	dmuOccupancy() (tasks, deps int)
}

// bindCancel installs the run's cancellation poll from the caller's context
// and the explicit Config.Cancelled hook. Runs with a background context and
// no hook stay uncancellable: the poll stays nil and the simulated threads
// skip the check entirely.
func (rs *runState) bindCancel(ctx context.Context, hook func() bool) {
	done := ctx.Done()
	if done == nil && hook == nil {
		return
	}
	rs.cancelled = func() bool {
		if hook != nil && hook() {
			return true
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	rs.cancelCause = func() error {
		if err := context.Cause(ctx); err != nil {
			return fmt.Errorf("taskrt: %s/%s on %s: %w: %w",
				rs.cfg.Runtime, rs.cfg.Scheduler, rs.prog.Name, ErrCancelled, err)
		}
		return fmt.Errorf("taskrt: %s/%s on %s: %w",
			rs.cfg.Runtime, rs.cfg.Scheduler, rs.prog.Name, ErrCancelled)
	}
}

// checkCancel polls the run's cancellation hook at a task boundary. On
// cancellation it halts the engine (first observer only) and suspends the
// calling simulated thread; it never returns in that case.
func (rs *runState) checkCancel(tc *threadCtx) {
	if rs.cancelled == nil || !rs.cancelled() {
		return
	}
	if !rs.halting {
		rs.halting = true
		rs.eng.Halt(rs.cancelCause())
	}
	tc.proc.Suspend("cancelled")
}

// descOf returns the synthetic task descriptor address of a task.
func (rs *runState) descOf(id task.ID) uint64 {
	return descriptorBase + uint64(id)*descriptorStride
}

// specOf resolves a task descriptor address back to its specification,
// inverting descOf.
func (rs *runState) specOf(desc uint64) *task.Spec {
	off := desc - descriptorBase
	if desc < descriptorBase || off%descriptorStride != 0 || off/descriptorStride >= uint64(len(rs.specs)) {
		panic(fmt.Sprintf("taskrt: unknown task descriptor 0x%x", desc))
	}
	return rs.specs[off/descriptorStride]
}

// readyFromSpec builds the scheduler's view of a ready task in the task's
// entry of rs.ready. A task becomes ready once per run, so no entry is
// handed out twice.
func (rs *runState) readyFromSpec(spec *task.Spec, numSuccs, affinity int) *sched.ReadyTask {
	rt := &rs.ready[spec.ID]
	*rt = sched.ReadyTask{Spec: spec, NumSuccs: numSuccs, Affinity: affinity}
	return rt
}

// allExecuted reports whether every created task has finished.
func (rs *runState) allExecuted() bool { return rs.executed == rs.created }

// noteCreated records that the master registered one more task, stamping its
// submission cycle for the queue-to-retire latency series.
func (rs *runState) noteCreated(spec *task.Spec) {
	rs.created++
	rs.submitAt[spec.ID] = int64(rs.eng.Now())
}

// noteExecuted records a completed finish phase and wakes barrier waiters
// when the last outstanding task retires. It also records the task's
// queue-to-retire latency and samples the runtime's in-flight occupancy —
// reads of the simulated clock only, so telemetry never perturbs timing.
func (rs *runState) noteExecuted(core int, spec *task.Spec) {
	rs.executed++
	rs.executedByCore[core]++
	now := int64(rs.eng.Now())
	rs.latencies = append(rs.latencies, now-rs.submitAt[spec.ID])
	sample := stats.OccupancySample{Cycle: now, InFlight: rs.created - rs.executed}
	if rs.dmuOcc != nil {
		sample.DMUTasks, sample.DMUDeps = rs.dmuOcc.dmuOccupancy()
	}
	rs.occupancy.Record(sample)
	if rs.allExecuted() {
		rs.work.Broadcast()
	}
}

// notifyWork wakes up to n idle threads to look for newly available tasks.
func (rs *runState) notifyWork(n int) {
	for i := 0; i < n; i++ {
		rs.work.Notify()
	}
}

// spawnThreads creates the master (core 0) and worker (cores 1..N-1)
// processes.
func (rs *runState) spawnThreads() {
	cores := rs.cfg.Machine.Cores
	rs.threads = make([]*threadCtx, cores)
	for core := 0; core < cores; core++ {
		core := core
		tc := &threadCtx{rs: rs, core: core}
		rs.threads[core] = tc
		name := fmt.Sprintf("worker-%d", core)
		if core == 0 {
			name = "master"
		}
		rs.eng.Spawn(name, func(p *sim.Proc) {
			tc.proc = p
			if core == 0 {
				rs.masterThread(tc)
			} else {
				rs.workerThread(tc)
			}
		})
	}
}

// result assembles the Result once the simulation has finished.
func (rs *runState) result() *Result {
	res := &Result{
		Benchmark:       rs.prog.Name,
		Runtime:         rs.cfg.Runtime,
		Scheduler:       rs.cfg.Scheduler,
		Cycles:          int64(rs.eng.Now()),
		PerThread:       make([]stats.Breakdown, len(rs.threads)),
		TasksCreated:    rs.created,
		TasksExecuted:   rs.executed,
		ExecutedByCore:  rs.executedByCore,
		SchedulerPushes: rs.schedPushes,
		SchedulerPops:   rs.schedPops,
		LocalityHitRate: rs.locality.HitRate(),
		Timeline:        rs.timeline,
	}
	if !rs.cfg.Runtime.UsesSoftwareScheduler() {
		res.Scheduler = "hardware-fifo"
	}
	res.Seconds = rs.cfg.Machine.CyclesToMicros(res.Cycles) / 1e6
	for i, tc := range rs.threads {
		res.PerThread[i] = tc.breakdown
	}
	res.Master = res.PerThread[0]
	if len(res.PerThread) > 1 {
		res.Workers = stats.Sum(res.PerThread[1:]...)
	}
	res.TaskLatency = stats.SummarizeLatencies(rs.latencies)
	res.Occupancy = rs.occupancy.Samples()
	rs.backend.fillResult(res)
	return res
}

// threadCtx carries the per-thread simulation context: the process handle,
// the core index and the phase accounting.
type threadCtx struct {
	rs        *runState
	proc      *sim.Proc
	core      int
	breakdown stats.Breakdown
}

// charge advances simulated time by cycles and accounts them to the phase.
func (tc *threadCtx) charge(phase stats.Phase, cycles int64) {
	tc.chargeLabeled(phase, cycles, "")
}

// chargeLabeled is charge with a timeline label (for example the kernel name
// of an executing task).
func (tc *threadCtx) chargeLabeled(phase stats.Phase, cycles int64, label string) {
	if cycles <= 0 {
		return
	}
	start := int64(tc.proc.Now())
	tc.proc.Wait(sim.Time(cycles))
	tc.breakdown.Add(phase, cycles)
	tc.rs.timeline.Record(tc.core, start, start+cycles, traceKind(phase), label)
}

// account books cycles that have already elapsed (for example time spent
// parked waiting for the DMU port or for a signal) into the phase without
// advancing time again.
func (tc *threadCtx) account(phase stats.Phase, start, end int64) {
	if end <= start {
		return
	}
	tc.breakdown.Add(phase, end-start)
	tc.rs.timeline.Record(tc.core, start, end, traceKind(phase), "")
}

// idleWait parks the thread until cond() holds (re-checked on every work
// signal) and accounts the elapsed time as IDLE.
func (tc *threadCtx) idleWait(cond func() bool) {
	start := int64(tc.proc.Now())
	tc.rs.work.WaitFor(tc.proc, cond)
	tc.account(stats.Idle, start, int64(tc.proc.Now()))
}

// capacityWait parks the thread until cond() holds (re-checked whenever
// hardware capacity is freed) and accounts the elapsed time to the given
// phase; the paper attributes creation-side stalls to dependence management.
func (tc *threadCtx) capacityWait(phase stats.Phase, cond func() bool) {
	start := int64(tc.proc.Now())
	tc.rs.capacity.WaitFor(tc.proc, cond)
	tc.account(phase, start, int64(tc.proc.Now()))
}

func traceKind(p stats.Phase) trace.Kind {
	switch p {
	case stats.Exec:
		return trace.Task
	case stats.Idle:
		return trace.IdleSpan
	default:
		return trace.Runtime
	}
}

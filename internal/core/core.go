// Package core is the public entry point of the TDM reproduction library. It
// composes the machine model, the runtime systems (software baseline, TDM,
// Carbon, Task Superscalar), the Dependence Management Unit, the software
// schedulers, the benchmark workload generators and the power/area models
// into a single API:
//
//	cfg := core.DefaultConfig(core.TDM)
//	cfg.Scheduler = "locality"
//	res, err := core.RunBenchmark("cholesky", cfg)
//	fmt.Println(res.Cycles, res.Energy.EDP)
//
// Examples under examples/ and the experiment drivers under
// internal/experiments are written exclusively against this package.
package core

import (
	"context"
	"fmt"

	"repro/internal/area"
	"repro/internal/dmu"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/taskrt"
	"repro/internal/workloads"
)

// Runtime kinds re-exported for convenience.
const (
	Software        = taskrt.Software
	TDM             = taskrt.TDM
	Carbon          = taskrt.Carbon
	TaskSuperscalar = taskrt.TaskSuperscalar
)

// Config selects the system to simulate.
type Config struct {
	// Runtime selects the runtime system (Software, TDM, Carbon,
	// TaskSuperscalar).
	Runtime taskrt.Kind
	// Scheduler is the software scheduling policy (fifo, lifo, locality,
	// successor, age) for Software and TDM runs.
	Scheduler string
	// Machine is the chip model.
	Machine machine.Config
	// DMU configures the Dependence Management Unit.
	DMU dmu.Config
	// Power is the energy model.
	Power power.Config
	// RecordTimeline keeps a Figure 1-style execution timeline.
	RecordTimeline bool
	// ValidateOrder cross-checks the execution against the golden TDG.
	ValidateOrder bool
}

// DefaultConfig returns the paper's evaluation configuration (32 cores at
// 2 GHz, Table I DMU sizes, FIFO scheduling) for the given runtime kind.
func DefaultConfig(kind taskrt.Kind) Config {
	return Config{
		Runtime:       kind,
		Scheduler:     sched.FIFO,
		Machine:       machine.Default(),
		DMU:           dmu.DefaultConfig(),
		Power:         power.DefaultConfig(),
		ValidateOrder: true,
	}
}

// Schedulers lists the available software scheduling policies.
func Schedulers() []string { return sched.Names() }

// Runtimes lists the available runtime systems.
func Runtimes() []taskrt.Kind { return taskrt.Kinds() }

// Benchmarks lists the available benchmark names.
func Benchmarks() []string { return workloads.Names() }

// Result bundles the timing result of a run with its energy estimate. It
// does not reference the program that ran, so it stays small when stored or
// sent: a caller that needs the program generates it (ResolveBenchmark), and
// TasksExecuted is the program's task count for every run that returned
// without error.
type Result struct {
	*taskrt.Result
	// Energy is the power-model estimate for the run.
	Energy power.Estimate
}

// Complete reports whether a result holds a finished simulation: the
// embedded runtime result is present, at least one task executed, every
// created task executed, and the per-thread breakdown is filled in. Decoders
// of stored or received results must check it, because JSON decoding
// zero-fills whatever a truncated or foreign body lacks: {"Cycles":42}
// decodes to a non-nil runtime result.
func (r *Result) Complete() bool {
	return r.Result != nil && r.TasksExecuted > 0 &&
		r.TasksCreated == r.TasksExecuted && len(r.PerThread) > 0
}

// Run simulates an arbitrary program under the configuration.
func Run(prog *task.Program, cfg Config) (*Result, error) {
	return RunContext(context.Background(), prog, cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled the simulation
// stops at the next task boundary (no further task is created or acquired)
// and the returned error wraps the context's cancellation cause and
// taskrt.ErrCancelled. A background context adds no overhead.
func RunContext(ctx context.Context, prog *task.Program, cfg Config) (*Result, error) {
	rtCfg := taskrt.Config{
		Machine:        cfg.Machine,
		Runtime:        cfg.Runtime,
		Scheduler:      cfg.Scheduler,
		DMU:            cfg.DMU,
		RecordTimeline: cfg.RecordTimeline,
		ValidateOrder:  cfg.ValidateOrder,
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, err
	}
	res, err := taskrt.RunContext(ctx, prog, rtCfg)
	if err != nil {
		return nil, err
	}
	est := cfg.Power.Estimate(ActivityOf(res, cfg.Machine))
	return &Result{Result: res, Energy: est}, nil
}

// BenchmarkProgram is a benchmark program resolved but not yet generated:
// which benchmark, at which granularity, for which machine (whose clock
// converts the work model's durations to cycles).
type BenchmarkProgram struct {
	Bench       *workloads.Benchmark
	Granularity int64
	Machine     machine.Config
}

// ResolveBenchmark resolves the program a run of the named benchmark under
// cfg executes: at granularity, or at the Table II optimal for cfg.Runtime
// when granularity is 0. RunBenchmark and RunBenchmarkAt generate their
// programs through it.
func ResolveBenchmark(name string, granularity int64, cfg Config) (BenchmarkProgram, error) {
	bench, err := workloads.ByName(name)
	if err != nil {
		return BenchmarkProgram{}, err
	}
	if granularity == 0 {
		granularity = bench.OptimalFor(cfg.Runtime.UsesDMU())
	}
	return BenchmarkProgram{Bench: bench, Granularity: granularity, Machine: cfg.Machine}, nil
}

// Generate builds the program.
func (p BenchmarkProgram) Generate() *task.Program {
	return p.Bench.Generate(p.Granularity, p.Machine)
}

// RunBenchmark generates the named benchmark at the optimal granularity for
// the configured runtime (Table II) and simulates it.
func RunBenchmark(name string, cfg Config) (*Result, error) {
	return RunBenchmarkAtContext(context.Background(), name, 0, cfg)
}

// RunBenchmarkAt generates the named benchmark at an explicit granularity and
// simulates it (used by the Figure 6 sweep). Granularity 0 selects the
// optimal granularity, as in RunBenchmark.
func RunBenchmarkAt(name string, granularity int64, cfg Config) (*Result, error) {
	return RunBenchmarkAtContext(context.Background(), name, granularity, cfg)
}

// RunBenchmarkAtContext is RunBenchmarkAt with cancellation (see RunContext).
func RunBenchmarkAtContext(ctx context.Context, name string, granularity int64, cfg Config) (*Result, error) {
	p, err := ResolveBenchmark(name, granularity, cfg)
	if err != nil {
		return nil, err
	}
	return RunContext(ctx, p.Generate(), cfg)
}

// ActivityOf converts a runtime result into the power model's activity
// summary.
func ActivityOf(res *taskrt.Result, m machine.Config) power.Activity {
	cyclesToSeconds := func(c int64) float64 { return m.CyclesToMicros(c) / 1e6 }
	var busy, idle int64
	for _, b := range res.PerThread {
		busy += b.Busy()
		idle += b.Get(stats.Idle)
	}
	var queueOps uint64
	if res.CarbonQueues != nil {
		queueOps = res.CarbonQueues.Enqueues + res.CarbonQueues.Dequeues + res.CarbonQueues.Steals
	}
	if res.HardwareQueue != nil {
		queueOps += res.HardwareQueue.Enqueues + res.HardwareQueue.Dequeues
	}
	return power.Activity{
		DurationSeconds:  cyclesToSeconds(res.Cycles),
		CoreBusySeconds:  cyclesToSeconds(busy),
		CoreIdleSeconds:  cyclesToSeconds(idle),
		DMUAccesses:      res.DMUAccesses(),
		HardwareQueueOps: queueOps,
		HasDMU:           res.DMU != nil,
	}
}

// DMUArea returns the storage/area report of the configured DMU (Table III).
func DMUArea(cfg Config) area.Report { return area.DMUReport(cfg.DMU) }

// TaskSuperscalarArea returns the storage report of a Task Superscalar
// pipeline sized like the configured DMU (Section VI-C).
func TaskSuperscalarArea(cfg Config) area.Report { return area.TaskSuperscalarReport(cfg.DMU) }

// HardwareComplexityRatio returns how much more storage Task Superscalar
// needs than the DMU (the paper reports 7.3x).
func HardwareComplexityRatio(cfg Config) float64 {
	return area.StorageRatio(area.TaskSuperscalarReport(cfg.DMU), area.DMUReport(cfg.DMU))
}

// Describe returns a one-line description of a configuration, used by the
// command-line tools.
func Describe(cfg Config) string {
	if cfg.Runtime.UsesSoftwareScheduler() {
		return fmt.Sprintf("%s runtime, %s scheduler, %d cores", cfg.Runtime, cfg.Scheduler, cfg.Machine.Cores)
	}
	return fmt.Sprintf("%s runtime (hardware scheduling), %d cores", cfg.Runtime, cfg.Machine.Cores)
}

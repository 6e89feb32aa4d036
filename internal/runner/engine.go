package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/task"
)

// Engine executes jobs against a base configuration, memoizing results in an
// optional Store and fanning independent points out over a worker pool. It
// is the in-process Executor: Execute simulates one point, bounded by
// Workers.
type Engine struct {
	// Base supplies the machine, DMU and power models shared by every job.
	// Its Runtime and Scheduler fields are overridden per job.
	Base core.Config
	// Store caches results across jobs and sweeps. nil disables caching
	// (each RunAll call still deduplicates its own job set).
	Store *Store
	// Workers bounds the number of concurrently executing simulations
	// across every caller of the engine: RunAll's pool, a sweep service's
	// sweeps and a fleet worker's requests all wait for one of Workers
	// execution slots in Execute. Zero or negative means GOMAXPROCS. Set it
	// before the engine is first used.
	Workers int
	// Log receives one progress line per actually executed simulation
	// (cache hits are silent); nil silences progress output.
	Log io.Writer
	// Metrics, when non-nil, counts and times executions (see
	// EngineMetrics). Set it before the engine is shared.
	Metrics *EngineMetrics

	logMu     sync.Mutex
	slotsOnce sync.Once
	slots     chan struct{} // execution slots, sized by Workers on first use
}

// Key returns the content-addressed key of a job under the engine's base
// configuration.
func (e *Engine) Key(j Job) string { return j.Key(e.Base) }

// workers resolves the worker-pool size.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// WorkerCount returns the resolved worker-pool size (Workers, or GOMAXPROCS
// when unset), for callers that schedule work onto the engine themselves.
func (e *Engine) WorkerCount() int { return e.workers() }

func (e *Engine) logf(format string, args ...any) {
	if e.Log == nil {
		return
	}
	e.logMu.Lock()
	fmt.Fprintf(e.Log, format+"\n", args...)
	e.logMu.Unlock()
}

// Run executes one job through the store (when present), sharing both
// completed and in-flight computations of the same point.
func (e *Engine) Run(j Job) (*core.Result, error) {
	return e.RunContext(context.Background(), j)
}

// RunContext is Run with cancellation: a cancelled context stops the
// in-flight simulation at its next task boundary, and a request waiting on
// another request's in-flight computation of the same point stops waiting.
func (e *Engine) RunContext(ctx context.Context, j Job) (*core.Result, error) {
	if e.Store == nil {
		return e.Execute(ctx, j)
	}
	return e.runKeyed(ctx, j, e.Key(j))
}

// Execute simulates a job in-process against Base, bypassing the store. It
// first waits for one of the engine's Workers execution slots (returning
// the context's cause if ctx ends first), then logs one progress line and
// records execution latency and failure class. Under a context from
// WithPrograms, the job's program comes from the context's memo once the
// job holds its slot.
func (e *Engine) Execute(ctx context.Context, j Job) (*core.Result, error) {
	e.slotsOnce.Do(func() { e.slots = make(chan struct{}, e.workers()) })
	select {
	case e.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	defer func() { <-e.slots }()
	var start time.Time
	if e.Metrics != nil {
		start = time.Now()
		e.Metrics.Execs.Inc()
	}
	e.logf("running %-14s %-16s sched=%-9s %s", j.Benchmark, j.Runtime, j.Scheduler, j.Label)
	if m, ok := ctx.Value(programsKey{}).(*programMemo); ok {
		j = m.fill(j, e.Base)
	}
	res, err := j.RunContext(ctx, e.Base)
	if e.Metrics != nil {
		e.Metrics.ExecSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			e.Metrics.ExecErrors.With(ErrorClass(err)).Inc()
		}
	}
	return res, err
}

// runKeyed executes a job through the store under an already-derived key.
func (e *Engine) runKeyed(ctx context.Context, j Job, key string) (*core.Result, error) {
	res, _, err := e.Store.Do(ctx, key, func(ctx context.Context) (*core.Result, error) {
		return e.Execute(ctx, j)
	})
	return res, err
}

// programsKey carries a program memo in a context (see WithPrograms).
type programsKey struct{}

// WithPrograms returns a context under which Execute shares generated
// benchmark programs: each distinct program (benchmark, resolved
// granularity, machine) is generated once, by the first point that needs
// it, while any other point needing it waits. Programs are immutable once
// run, so the points' simulations share them, and the memo dies with the
// context, so no result keeps a program alive. RunAllContext scopes a memo
// to its call and a service sweep to the sweep. A context that already
// carries a memo is returned unchanged, so nested scopes share the
// outermost one.
func WithPrograms(ctx context.Context) context.Context {
	if _, ok := ctx.Value(programsKey{}).(*programMemo); ok {
		return ctx
	}
	return context.WithValue(ctx, programsKey{}, &programMemo{progs: make(map[programKey]*memoProgram)})
}

// programMemo is the program table of one WithPrograms scope.
type programMemo struct {
	mu    sync.Mutex
	progs map[programKey]*memoProgram
}

type programKey struct {
	benchmark   string
	granularity int64
	machine     machine.Config
}

type memoProgram struct {
	once sync.Once
	prog *task.Program
}

// fill returns j with its Program set from the memo. A job that already
// carries a program, or names no known benchmark, is returned unchanged, so
// running it behaves (and fails) as it would without the memo.
func (m *programMemo) fill(j Job, base core.Config) Job {
	if j.Program != nil {
		return j
	}
	p, err := core.ResolveBenchmark(j.Benchmark, j.Granularity, j.Config(base))
	if err != nil {
		return j
	}
	k := programKey{p.Bench.Name, p.Granularity, p.Machine}
	m.mu.Lock()
	mp := m.progs[k]
	if mp == nil {
		mp = &memoProgram{}
		m.progs[k] = mp
	}
	m.mu.Unlock()
	mp.once.Do(func() { mp.prog = p.Generate() })
	j.Program = mp.prog
	return j
}

// RunAll executes a job set concurrently and returns the results in job
// order (deterministic assembly regardless of worker count or completion
// order). Jobs with equal keys are deduplicated: each distinct point is
// simulated once and its result shared across all aliases. The call is one
// WithPrograms scope, so each distinct benchmark program is generated once
// per call and shared by every point that simulates it. Errors from
// distinct points are joined in job order.
func (e *Engine) RunAll(jobs []Job) ([]*core.Result, error) {
	return e.RunAllContext(context.Background(), jobs)
}

// RunAllContext is RunAll with cancellation: when ctx is cancelled, in-flight
// simulations stop at their next task boundary, not-yet-started points are
// skipped (their result slot stays nil), and the cancellation cause is
// returned instead of the per-point error join.
func (e *Engine) RunAllContext(ctx context.Context, jobs []Job) ([]*core.Result, error) {
	ctx = WithPrograms(ctx)
	// Deduplicate while preserving first-occurrence order.
	type slot struct {
		res *core.Result
		err error
	}
	byKey := make(map[string]int, len(jobs))
	slotOf := make([]int, len(jobs))
	var unique []Job
	var keys []string
	for i, j := range jobs {
		k := e.Key(j)
		if at, ok := byKey[k]; ok {
			slotOf[i] = at
			continue
		}
		byKey[k] = len(unique)
		slotOf[i] = len(unique)
		unique = append(unique, j)
		keys = append(keys, k)
	}

	slots := make([]slot, len(unique))
	workers := e.workers()
	if workers > len(unique) {
		workers = len(unique)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := context.Cause(ctx); err != nil {
					slots[i] = slot{nil, err}
					continue
				}
				var res *core.Result
				var err error
				if e.Store == nil {
					res, err = e.Execute(ctx, unique[i])
				} else {
					res, err = e.runKeyed(ctx, unique[i], keys[i])
				}
				slots[i] = slot{res, err}
			}
		}()
	}
	for i := range unique {
		work <- i
	}
	close(work)
	wg.Wait()

	out := make([]*core.Result, len(jobs))
	var errs []error
	for i := range jobs {
		out[i] = slots[slotOf[i]].res
	}
	// A cancelled sweep reports the cancellation itself: the per-point
	// errors would all restate it once per in-flight or skipped point.
	if err := context.Cause(ctx); err != nil {
		return out, err
	}
	for i := range unique {
		if slots[i].err != nil {
			errs = append(errs, slots[i].err)
		}
	}
	return out, errors.Join(errs...)
}

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
// optional Store. It is the in-process Executor: Execute simulates one
// point, and its Workers execution slots are the engine's one bound on
// concurrent simulations.
type Engine struct {
	// Base supplies the machine, DMU and power models shared by every job.
	// Its Runtime and Scheduler fields are overridden per job. Set it
	// before the engine is first used: Key memoizes keys derived from it.
	Base core.Config
	// Store caches results across jobs and sweeps. nil disables caching
	// (each RunAll call still deduplicates its own job set).
	Store *Store
	// Workers bounds the number of concurrently executing simulations
	// across every caller of the engine: RunAll's points, a sweep service's
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

	keyMu sync.Mutex
	keys  map[Job]string // Key's memo, by job with Label cleared
}

// keyMemoCap bounds Key's memo: it is emptied when it reaches this many
// entries, so a long-running engine sweeping ever new points keeps it small.
const keyMemoCap = 4096

// Key returns the content-addressed key of a job under the engine's base
// configuration. Keys of jobs without a DMU override or a program are
// memoized: deriving one encodes and hashes the whole resolved
// configuration, and a sweep service keys every point of every sweep. The
// memo is indexed by the job itself, less the Label the key ignores, so a
// field added to Job joins the index by construction.
func (e *Engine) Key(j Job) string {
	if j.DMU != nil || j.Program != nil {
		return j.Key(e.Base)
	}
	j.Label = ""
	e.keyMu.Lock()
	k, ok := e.keys[j]
	e.keyMu.Unlock()
	if ok {
		return k
	}
	k = j.Key(e.Base)
	e.keyMu.Lock()
	if e.keys == nil {
		e.keys = make(map[Job]string)
	} else if len(e.keys) >= keyMemoCap {
		clear(e.keys)
	}
	e.keys[j] = k
	e.keyMu.Unlock()
	return k
}

// WorkerCount returns the number of execution slots (Workers, or
// GOMAXPROCS when unset), for callers that schedule work onto the engine
// themselves.
func (e *Engine) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

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
// first waits for one of the engine's Workers execution slots, returning the
// context's cause if ctx ends first or has ended by the time the slot is
// taken, so no simulation starts after a cancellation. It then logs one
// progress line and records execution latency and failure class. Under a
// context from WithPrograms, the job's program comes from the context's
// memo once the job holds its slot.
func (e *Engine) Execute(ctx context.Context, j Job) (*core.Result, error) {
	e.slotsOnce.Do(func() { e.slots = make(chan struct{}, e.WorkerCount()) })
	select {
	case e.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	defer func() { <-e.slots }()
	// select picks at random when a slot is free and ctx has ended.
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
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
// simulated once and its result shared across all aliases. Every distinct
// point runs in a goroutine of its own, and Execute's Workers slots bound
// how many simulate at once, so points may start in any order. The call is
// one WithPrograms scope, so each distinct benchmark program is generated
// once per call and shared by every point that simulates it. Errors from
// distinct points are joined in job order.
func (e *Engine) RunAll(jobs []Job) ([]*core.Result, error) {
	return e.RunAllContext(context.Background(), jobs)
}

// RunAllContext is RunAll with cancellation: when ctx is cancelled, in-flight
// simulations stop at their next task boundary, points not yet holding an
// execution slot never start (their result stays nil, unless the store
// already held it), and the cancellation cause is returned instead of the
// per-point error join.
func (e *Engine) RunAllContext(ctx context.Context, jobs []Job) ([]*core.Result, error) {
	ctx = WithPrograms(ctx)
	// Deduplicate while preserving first-occurrence order.
	byKey := make(map[string]int, len(jobs))
	pointOf := make([]int, len(jobs))
	var unique []Job
	var keys []string
	for i, j := range jobs {
		k := e.Key(j)
		if at, ok := byKey[k]; ok {
			pointOf[i] = at
			continue
		}
		byKey[k] = len(unique)
		pointOf[i] = len(unique)
		unique = append(unique, j)
		keys = append(keys, k)
	}

	res := make([]*core.Result, len(unique))
	errs := make([]error, len(unique))
	var wg sync.WaitGroup
	for i, j := range unique {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e.Store == nil {
				res[i], errs[i] = e.Execute(ctx, j)
			} else {
				res[i], errs[i] = e.runKeyed(ctx, j, keys[i])
			}
		}()
	}
	wg.Wait()

	out := make([]*core.Result, len(jobs))
	for i := range jobs {
		out[i] = res[pointOf[i]]
	}
	// A cancelled sweep reports the cancellation itself: the per-point
	// errors would all restate it once per in-flight or skipped point.
	if err := context.Cause(ctx); err != nil {
		return out, err
	}
	return out, errors.Join(errs...)
}

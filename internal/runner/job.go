// Package runner executes sweeps of simulation points concurrently.
//
// A Job names one simulation point, as plain data: a benchmark executed
// under a runtime system, a scheduling policy and a configuration. Jobs are
// content-addressed: a job's key is a cryptographic digest of the
// benchmark, the granularity and the canonical JSON encoding of the fully
// resolved core.Config, so two jobs that would simulate the same system are
// identical by construction — no hand-maintained cache-key discipline is
// required, and points shared between sweeps deduplicate automatically.
//
// An Engine runs each distinct point of a job set in a goroutine of its own,
// bounds the simulations running at once by its Workers execution slots
// (GOMAXPROCS by default), and memoizes results in a concurrency-safe Store,
// which can optionally be backed by a directory of JSON files so interrupted
// sweeps resume warm.
// A Grid expands cartesian products (benchmarks x runtimes x schedulers x
// core counts x granularities) into job sets for arbitrary user-defined
// sweeps beyond the paper's figures.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dmu"
	"repro/internal/task"
	"repro/internal/taskrt"
)

// Job is one simulation point of a sweep.
type Job struct {
	// Benchmark is the workload name (see workloads.Names).
	Benchmark string
	// Runtime selects the runtime system.
	Runtime taskrt.Kind
	// Scheduler is the software scheduling policy. Empty keeps the base
	// configuration's policy.
	Scheduler string
	// Cores overrides the base machine's core count when positive.
	Cores int
	// Granularity selects the workload granularity; 0 means the Table II
	// optimal for the runtime kind.
	Granularity int64
	// Label is a human-readable tag for progress logs. It does not
	// contribute to the job key.
	Label string
	// DMU, when non-nil, replaces the base configuration's DMU.
	DMU *dmu.Config
	// Program optionally supplies a pre-built program (record/replay
	// sweeps, see task.ReadProgramFile). When non-nil it is executed
	// directly: Benchmark becomes a display label only and Granularity is
	// ignored. The job key covers the program's canonical JSON encoding,
	// so replayed points content-address like generated ones.
	Program *task.Program
}

// Config resolves the effective configuration of the job on top of a base
// configuration (which supplies the machine, DMU and power models).
func (j Job) Config(base core.Config) core.Config {
	cfg := base
	cfg.Runtime = j.Runtime
	if j.Scheduler != "" {
		cfg.Scheduler = j.Scheduler
	}
	if j.Cores > 0 {
		cfg.Machine = cfg.Machine.WithCores(j.Cores)
	}
	if j.DMU != nil {
		cfg.DMU = *j.DMU
	}
	return cfg
}

// SchemaVersion is mixed into every job key. Bump it when the simulator's
// semantics change in a way that alters results without changing any
// core.Config field, so disk stores written by older binaries invalidate
// cleanly instead of serving stale numbers.
const SchemaVersion = 2 // v2: results carry task-latency percentiles and DMU occupancy samples

// Key returns the content-addressed identity of the job under the base
// configuration: a SHA-256 digest over the schema version, the benchmark,
// the granularity (0 when it equals the Table II optimal for the job's
// runtime) and the canonical JSON encoding of the effective core.Config.
// Jobs that simulate the same system have equal keys regardless of which
// sweep or figure enumerated them.
func (j Job) Key(base core.Config) string {
	cfg := j.Config(base)
	granularity := j.Granularity
	var program []byte
	if j.Program != nil {
		var err error
		program, err = task.MarshalProgram(j.Program)
		if err != nil {
			panic(fmt.Sprintf("runner: cannot encode replay program: %v", err))
		}
	} else if granularity != 0 {
		// An explicit Table II optimal generates the program granularity 0
		// does, so it hashes as 0.
		if p, err := core.ResolveBenchmark(j.Benchmark, 0, cfg); err == nil && p.Granularity == granularity {
			granularity = 0
		}
	}
	payload, err := json.Marshal(struct {
		Schema      int
		Benchmark   string
		Granularity int64
		Program     string `json:",omitempty"`
		Config      core.Config
	}{SchemaVersion, j.Benchmark, granularity, string(program), cfg})
	if err != nil {
		// core.Config is plain data; this only fires if a non-serializable
		// field is ever added to it.
		panic(fmt.Sprintf("runner: cannot encode job config: %v", err))
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// Desc returns a short human-readable description of the point.
func (j Job) Desc() string {
	d := fmt.Sprintf("%s/%s/%s", j.Benchmark, j.Runtime, j.Scheduler)
	if j.Cores > 0 {
		d += fmt.Sprintf(" cores=%d", j.Cores)
	}
	if j.Granularity != 0 {
		d += fmt.Sprintf(" gran=%d", j.Granularity)
	}
	if j.Label != "" {
		d += " " + j.Label
	}
	return d
}

// Run simulates the job's point under the base configuration.
func (j Job) Run(base core.Config) (*core.Result, error) {
	return j.RunContext(context.Background(), base)
}

// RunContext is Run with cancellation: when ctx is cancelled the simulation
// stops at the next task boundary and the error wraps the cancellation cause.
func (j Job) RunContext(ctx context.Context, base core.Config) (*core.Result, error) {
	cfg := j.Config(base)
	var res *core.Result
	var err error
	if j.Program != nil {
		res, err = core.RunContext(ctx, j.Program, cfg)
	} else {
		res, err = core.RunBenchmarkAtContext(ctx, j.Benchmark, j.Granularity, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s/%s/%s: %w", j.Benchmark, j.Runtime, cfg.Scheduler, err)
	}
	return res, nil
}

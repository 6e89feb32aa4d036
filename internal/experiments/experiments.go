// Package experiments contains one driver per figure and table of the
// paper's evaluation (Sections V and VI). Each driver runs the required
// simulations through the public core API and returns stats.Table values
// whose rows mirror the data series of the original figure, so the output
// can be compared against the paper (EXPERIMENTS.md records that comparison).
//
// Every driver enumerates its simulation points as runner.Job values, so
// sweeps execute through the internal/runner engine: points are
// content-addressed (identical points shared between figures are simulated
// once), memoized in a concurrency-safe store, and — when a figure's point
// set is known up front — executed in parallel over a worker pool before the
// tables are assembled sequentially. Table output is therefore byte-identical
// regardless of the worker count.
//
// The drivers are used by cmd/experiments (text/CSV output), cmd/sweep
// (arbitrary grids) and by the repository-level benchmark harness in
// bench_test.go.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/dmu"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/taskrt"
	"repro/internal/workloads"
)

// Options parameterizes an experiment run.
type Options struct {
	// Machine is the chip configuration (defaults to the paper's 32-core
	// machine).
	Machine machine.Config
	// Power is the energy model.
	Power power.Config
	// DMU is the baseline DMU configuration.
	DMU dmu.Config
	// Benchmarks restricts the benchmark set (nil or empty means all nine).
	Benchmarks []string
	// Log receives progress lines; nil silences progress output.
	Log io.Writer
	// Cache shares simulation results between experiments in the same
	// process (and across processes when backed by a directory, see
	// runner.NewDiskStore), keyed by the content-addressed job key. Use
	// runner.NewStore; a nil cache disables sharing and parallel
	// prewarming.
	Cache *runner.Store
	// Workers bounds the number of concurrently executing simulations
	// during sweeps (0 means GOMAXPROCS).
	Workers int
}

// DefaultOptions returns the paper's evaluation setup.
func DefaultOptions() Options {
	return Options{
		Machine: machine.Default(),
		Power:   power.DefaultConfig(),
		DMU:     dmu.DefaultConfig(),
		Cache:   runner.NewStore(),
	}
}

// benchmarks resolves the benchmark list.
func (o Options) benchmarks() ([]*workloads.Benchmark, error) {
	names := o.Benchmarks
	if len(names) == 0 {
		names = workloads.Names()
	}
	out := make([]*workloads.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// engine builds the sweep engine executing this option set's jobs.
func (o Options) engine() *runner.Engine {
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = o.Machine
	base.Power = o.Power
	base.DMU = o.DMU
	return &runner.Engine{Base: base, Store: o.Cache, Workers: o.Workers, Log: o.Log}
}

// run simulates one sweep point through the engine, memoizing the result in
// the options cache.
func (o Options) run(j runner.Job) (*core.Result, error) {
	return o.engine().Run(j)
}

// Prewarm executes a set of sweep points concurrently through the options
// cache, so that subsequent driver runs assemble their tables from warm
// results. It is a no-op without a cache (the results could not be shared).
func Prewarm(opt Options, jobs []runner.Job) error {
	return PrewarmContext(context.Background(), opt, jobs)
}

// PrewarmContext is Prewarm with cancellation: a cancelled context stops
// in-flight simulations at their next task boundary and skips the rest.
// Points that completed before the cancellation stay cached (and persisted,
// with a disk-backed cache), so a rerun resumes warm.
func PrewarmContext(ctx context.Context, opt Options, jobs []runner.Job) error {
	if opt.Cache == nil || len(jobs) == 0 {
		return nil
	}
	_, err := opt.engine().RunAllContext(ctx, jobs)
	return err
}

// Experiment is one reproducible figure or table.
type Experiment struct {
	// ID is the short identifier used on the command line (fig2, tab3, ...).
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Run executes the experiment and returns its tables.
	Run func(Options) ([]*stats.Table, error)
	// Points enumerates the simulation points the experiment needs as
	// runner jobs, letting sweeps execute them concurrently (and
	// deduplicate points shared with other experiments) before Run
	// assembles the tables. nil means the experiment simulates nothing.
	Points func(Options) ([]runner.Job, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig2", Title: "Figure 2: execution time breakdown under the software runtime", Run: Fig2Breakdown, Points: pointsFig2},
		{ID: "fig6", Title: "Figure 6: execution time vs task granularity", Run: Fig6Granularity, Points: pointsFig6},
		{ID: "tab2", Title: "Table II: benchmark characteristics at the optimal granularities", Run: TableII},
		{ID: "fig7", Title: "Figure 7: performance vs TAT/DAT size", Run: Fig7AliasSizing, Points: pointsFig7},
		{ID: "fig8", Title: "Figure 8: performance vs list array size", Run: Fig8ListArrays, Points: pointsFig8},
		{ID: "fig9", Title: "Figure 9: performance vs DMU access latency", Run: Fig9Latency, Points: pointsFig9},
		{ID: "tab3", Title: "Table III: DMU storage and area", Run: TableIII},
		{ID: "fig10", Title: "Figure 10: task creation time, software vs TDM", Run: Fig10CreationTime, Points: pointsFig10},
		{ID: "fig11", Title: "Figure 11: DAT occupancy with static vs dynamic index bits", Run: Fig11IndexBits, Points: pointsFig11},
		{ID: "fig12", Title: "Figure 12: speedup and EDP of software schedulers with TDM", Run: Fig12Schedulers, Points: pointsFig12},
		{ID: "fig13", Title: "Figure 13: comparison against Carbon and Task Superscalar", Run: Fig13Comparison, Points: pointsFig13},
		{ID: "area-ratio", Title: "Section VI-C: hardware complexity comparison", Run: AreaComparison},
		{ID: "extracore", Title: "Section VI-C: adding a 33rd core to the software runtime", Run: ExtraCore, Points: pointsExtraCore},
	}
}

// ByID finds an experiment by its identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, ids)
}

// JobsFor returns the concatenated simulation points of the given
// experiments (callers hand the union to Prewarm; the engine deduplicates
// shared points by content address).
func JobsFor(opt Options, exps ...Experiment) ([]runner.Job, error) {
	var jobs []runner.Job
	for _, e := range exps {
		if e.Points == nil {
			continue
		}
		js, err := e.Points(opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		jobs = append(jobs, js...)
	}
	return jobs, nil
}

// RunAll executes every experiment, writing the tables to w. With a cache
// configured, the deduplicated union of every experiment's simulation points
// runs first, in parallel across Options.Workers workers; the tables are then
// assembled sequentially from the warm cache, so the output is identical to a
// strictly sequential run.
func RunAll(opt Options, w io.Writer) error {
	if opt.Cache != nil {
		jobs, err := JobsFor(opt, All()...)
		if err != nil {
			return err
		}
		if err := Prewarm(opt, jobs); err != nil {
			return err
		}
	}
	for _, e := range All() {
		if _, err := fmt.Fprintf(w, "\n######## %s — %s\n\n", e.ID, e.Title); err != nil {
			return err
		}
		tables, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			if _, err := fmt.Fprintln(w, t.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

package runner

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/taskrt"
	"repro/internal/workloads"
	"repro/internal/workloads/synth"
)

// Grid describes a cartesian sweep: every combination of the listed
// benchmarks, runtime systems, schedulers, core counts and granularities
// becomes one job. Empty dimensions fall back to defaults (all benchmarks,
// all runtimes, the FIFO scheduler, the base core count, the Table II
// optimal granularity).
//
// Benchmarks accepts synthetic workload specs ("synth:<family>:key=value,...")
// next to benchmark names, and the pseudo-entry "synth:all" expands to one
// default-parameter spec per synthetic family, so grids enumerate the open
// synthetic workload space exactly like the paper's nine benchmarks.
type Grid struct {
	Benchmarks    []string
	Runtimes      []taskrt.Kind
	Schedulers    []string
	Cores         []int
	Granularities []int64
}

// synthAll is the pseudo-benchmark expanding to every synthetic family.
const synthAll = "synth:all"

// expandBenchmarks resolves the Benchmarks dimension, substituting the
// synth:all pseudo-entry.
func (g Grid) expandBenchmarks() []string {
	if len(g.Benchmarks) == 0 {
		return workloads.Names()
	}
	var out []string
	for _, b := range g.Benchmarks {
		if b == synthAll {
			out = append(out, synth.DefaultSpecs()...)
			continue
		}
		out = append(out, b)
	}
	return out
}

// Validate rejects unknown benchmarks, runtimes and schedulers before a
// sweep starts.
func (g Grid) Validate() error {
	for _, b := range g.expandBenchmarks() {
		if _, err := workloads.ByName(b); err != nil {
			return err
		}
	}
	kinds := make(map[taskrt.Kind]bool)
	for _, k := range taskrt.Kinds() {
		kinds[k] = true
	}
	for _, k := range g.Runtimes {
		if !kinds[k] {
			return fmt.Errorf("runner: unknown runtime %q (known: %v)", k, taskrt.Kinds())
		}
	}
	for _, s := range g.Schedulers {
		if _, err := sched.New(s, 1); err != nil {
			return err
		}
	}
	for _, c := range g.Cores {
		if c <= 0 {
			return fmt.Errorf("runner: invalid core count %d", c)
		}
	}
	for _, gr := range g.Granularities {
		if gr < 0 {
			return fmt.Errorf("runner: invalid granularity %d", gr)
		}
	}
	return nil
}

// Size returns the number of jobs Jobs would emit, without allocating the
// expansion — submission paths use it to reject oversized grids before
// paying for them. It is derived from the same enumeration as Jobs, so the
// two cannot drift apart.
func (g Grid) Size() int {
	n := 0
	g.forEach(func(Job, [NumDims]int) { n++ })
	return n
}

// Jobs expands the grid into a deterministic job list. Runtime systems that
// schedule in hardware (Carbon, Task Superscalar) ignore the software
// scheduling policy, so the grid emits a single point for them per
// (benchmark, cores, granularity) combination instead of one per scheduler.
func (g Grid) Jobs() []Job {
	var jobs []Job
	g.forEach(func(j Job, _ [NumDims]int) { jobs = append(jobs, j) })
	return jobs
}

// NumDims is the number of grid dimensions a job coordinate indexes:
// benchmark, runtime, scheduler, cores, granularity (in that order).
const NumDims = 5

// Axes is the grid's expanded per-dimension value lists, after defaults are
// filled in and pseudo-entries (synth:all) are substituted — the value sets a
// job coordinate from Coords indexes into.
type Axes struct {
	Benchmarks    []string
	Runtimes      []taskrt.Kind
	Schedulers    []string
	Cores         []int
	Granularities []int64
}

// Len returns the axis lengths in coordinate order.
func (a Axes) Len() [NumDims]int {
	return [NumDims]int{len(a.Benchmarks), len(a.Runtimes), len(a.Schedulers), len(a.Cores), len(a.Granularities)}
}

// Axes returns the grid's expanded dimension values in the same
// normalization Jobs enumerates (defaults substituted for empty dimensions).
func (g Grid) Axes() Axes {
	a := Axes{
		Benchmarks:    g.expandBenchmarks(),
		Runtimes:      g.Runtimes,
		Schedulers:    g.Schedulers,
		Cores:         g.Cores,
		Granularities: g.Granularities,
	}
	if len(a.Runtimes) == 0 {
		a.Runtimes = taskrt.Kinds()
	}
	if len(a.Schedulers) == 0 {
		a.Schedulers = []string{sched.FIFO}
	}
	if len(a.Cores) == 0 {
		a.Cores = []int{0}
	}
	if len(a.Granularities) == 0 {
		a.Granularities = []int64{0}
	}
	return a
}

// Coords returns, for each job of Jobs() (same order), its per-dimension
// indices into Axes. Hardware-scheduled runtimes collapse the scheduler
// dimension, so their points always carry scheduler coordinate 0 — adaptive
// searches use the coordinates to find a point's grid neighbors.
func (g Grid) Coords() [][NumDims]int {
	var coords [][NumDims]int
	g.forEach(func(_ Job, c [NumDims]int) { coords = append(coords, c) })
	return coords
}

// forEach enumerates the grid's expansion in deterministic order — the
// single source of truth behind Jobs, Size and Coords.
func (g Grid) forEach(fn func(Job, [NumDims]int)) {
	a := g.Axes()
	for bi, b := range a.Benchmarks {
		for ri, rt := range a.Runtimes {
			scheds := a.Schedulers
			if !rt.UsesSoftwareScheduler() {
				scheds = scheds[:1]
			}
			for si, s := range scheds {
				if !rt.UsesSoftwareScheduler() {
					// Normalize so equal hardware-scheduled points share
					// one content address regardless of the grid's
					// scheduler list.
					s = sched.FIFO
				}
				for ci, c := range a.Cores {
					for gi, gran := range a.Granularities {
						fn(Job{
							Benchmark:   b,
							Runtime:     rt,
							Scheduler:   s,
							Cores:       c,
							Granularity: gran,
							Label:       "grid",
						}, [NumDims]int{bi, ri, si, ci, gi})
					}
				}
			}
		}
	}
}

// Package task defines the vocabulary shared by every runtime system and
// hardware model in the repository: task specifications, dependence
// annotations, programs divided into parallel regions, and a reference
// ("golden") task dependence graph built with the same last-writer/readers
// matching rules that OpenMP 4.0 runtimes and the DMU use.
//
// A workload generator (internal/workloads) emits a Program. The simulated
// runtime systems (internal/taskrt) never see the golden graph: they discover
// dependences themselves, either in software (internal/swdep) or through the
// DMU (internal/dmu). The golden graph exists to validate those
// implementations and to compute structural statistics such as the critical
// path.
package task

import (
	"fmt"
	"sort"
	"sync"
)

// Dir is the direction of a dependence annotation, mirroring the OpenMP 4.0
// depend clause.
type Dir uint8

const (
	// In marks data read by the task (depend(in:...)).
	In Dir = iota
	// Out marks data produced by the task (depend(out:...)).
	Out
	// InOut marks data both read and written (depend(inout:...)). For
	// dependence matching it behaves like Out: the task must wait for the
	// previous writer and all previous readers, and it becomes the new
	// last writer.
	InOut
)

// String returns the OpenMP-style name of the direction.
func (d Dir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// IsWrite reports whether the direction makes the task the last writer of the
// dependence.
func (d Dir) IsWrite() bool { return d == Out || d == InOut }

// IsRead reports whether the direction registers the task as a reader.
func (d Dir) IsRead() bool { return d == In }

// Dep is a single dependence annotation: a memory address, the size of the
// object it names (used by the DMU for index-bit selection), and a direction.
// Dependences match on the exact address, following OpenMP 4.0 list-item
// semantics.
type Dep struct {
	Addr uint64
	Size uint64
	Dir  Dir
}

func (d Dep) String() string {
	return fmt.Sprintf("%s:0x%x(%dB)", d.Dir, d.Addr, d.Size)
}

// ID identifies a task within a Program. IDs are assigned in creation
// (program) order starting at zero and are unique across regions.
type ID int32

// NoTask is the invalid task ID.
const NoTask ID = -1

// Spec describes one task instance: which kernel it runs, how long the body
// takes on an unloaded core, and which dependences it declares, in the order
// the runtime would pass them to add_dependence.
type Spec struct {
	ID       ID
	Kernel   string
	Duration int64 // body duration in cycles, before locality adjustments
	Deps     []Dep
	Region   int

	// Meta carries optional workload-specific labels (for example the
	// block coordinates of a tiled kernel) used by traces and tests.
	Meta string
}

func (s *Spec) String() string {
	return fmt.Sprintf("task %d [%s] region %d dur %d deps %d", s.ID, s.Kernel, s.Region, s.Duration, len(s.Deps))
}

// Region is a parallel region: the master thread creates Tasks in order and
// the region ends with an implicit barrier (taskwait). SequentialCycles is
// master-only sequential work executed before any task of the region is
// created.
type Region struct {
	Index            int
	SequentialCycles int64
	Tasks            []*Spec
}

// Program is a whole benchmark: an ordered list of parallel regions plus
// bookkeeping used by experiments.
//
// A program is immutable once it has been run: simulations only read it, so
// any number of runs, concurrent ones included, may share one program, and
// its golden graph is built on the first call to Graph and cached. Do not
// modify a program (its regions, tasks or dependences) after its first run.
type Program struct {
	Name    string
	Regions []Region

	// Granularity records the workload parameter that produced this
	// program (block size in bytes, number of partitions, points per
	// task, ...), for reporting in granularity sweeps.
	Granularity int64
	// GranularityUnit is a human-readable unit for Granularity.
	GranularityUnit string

	graphOnce sync.Once
	graph     *Graph
}

// Graph returns the program's golden task graph (see BuildProgramGraph). The
// first call builds it; later calls, from any goroutine, share that graph.
func (p *Program) Graph() *Graph {
	p.graphOnce.Do(func() { p.graph = BuildProgramGraph(p) })
	return p.graph
}

// Tasks returns every task of every region in creation order.
func (p *Program) Tasks() []*Spec {
	var out []*Spec
	for _, r := range p.Regions {
		out = append(out, r.Tasks...)
	}
	return out
}

// NumTasks returns the total number of tasks in the program.
func (p *Program) NumTasks() int {
	n := 0
	for _, r := range p.Regions {
		n += len(r.Tasks)
	}
	return n
}

// TotalWork returns the sum of all task body durations in cycles.
func (p *Program) TotalWork() int64 {
	var w int64
	for _, r := range p.Regions {
		for _, t := range r.Tasks {
			w += t.Duration
		}
	}
	return w
}

// SequentialWork returns the total master-only sequential cycles.
func (p *Program) SequentialWork() int64 {
	var w int64
	for _, r := range p.Regions {
		w += r.SequentialCycles
	}
	return w
}

// AvgDuration returns the mean task body duration in cycles, or zero for an
// empty program.
func (p *Program) AvgDuration() int64 {
	n := p.NumTasks()
	if n == 0 {
		return 0
	}
	return p.TotalWork() / int64(n)
}

// MaxDepsPerTask returns the largest number of dependence annotations on any
// single task.
func (p *Program) MaxDepsPerTask() int {
	max := 0
	for _, r := range p.Regions {
		for _, t := range r.Tasks {
			if len(t.Deps) > max {
				max = len(t.Deps)
			}
		}
	}
	return max
}

// NumDeps returns the total number of dependence annotations in the program.
func (p *Program) NumDeps() int {
	n := 0
	for _, r := range p.Regions {
		for _, t := range r.Tasks {
			n += len(t.Deps)
		}
	}
	return n
}

// DistinctAddrs returns the number of distinct dependence addresses used by
// the program. This bounds the occupancy of the DMU's dependence structures.
func (p *Program) DistinctAddrs() int {
	seen := make(map[uint64]struct{})
	for _, r := range p.Regions {
		for _, t := range r.Tasks {
			for _, d := range t.Deps {
				seen[d.Addr] = struct{}{}
			}
		}
	}
	return len(seen)
}

// Validate checks structural invariants of the program: IDs are dense and in
// creation order, regions are indexed consecutively, durations are positive
// and dependence sizes are non-zero. Workload generator tests call this.
func (p *Program) Validate() error {
	next := ID(0)
	for ri, r := range p.Regions {
		if r.Index != ri {
			return fmt.Errorf("program %s: region %d has index %d", p.Name, ri, r.Index)
		}
		if r.SequentialCycles < 0 {
			return fmt.Errorf("program %s: region %d has negative sequential cycles", p.Name, ri)
		}
		for _, t := range r.Tasks {
			if t.ID != next {
				return fmt.Errorf("program %s: task %d out of order (expected %d)", p.Name, t.ID, next)
			}
			next++
			if t.Region != ri {
				return fmt.Errorf("program %s: task %d records region %d, found in region %d", p.Name, t.ID, t.Region, ri)
			}
			if t.Duration <= 0 {
				return fmt.Errorf("program %s: task %d has non-positive duration %d", p.Name, t.ID, t.Duration)
			}
			for _, d := range t.Deps {
				if d.Size == 0 {
					return fmt.Errorf("program %s: task %d has zero-size dependence 0x%x", p.Name, t.ID, d.Addr)
				}
				if d.Dir > InOut {
					return fmt.Errorf("program %s: task %d has invalid direction %d", p.Name, t.ID, d.Dir)
				}
			}
		}
	}
	return nil
}

// KernelHistogram returns the number of tasks per kernel name, sorted by
// kernel name for stable output.
func (p *Program) KernelHistogram() []KernelCount {
	counts := make(map[string]int)
	for _, r := range p.Regions {
		for _, t := range r.Tasks {
			counts[t.Kernel]++
		}
	}
	out := make([]KernelCount, 0, len(counts))
	for k, c := range counts {
		out = append(out, KernelCount{Kernel: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kernel < out[j].Kernel })
	return out
}

// KernelCount pairs a kernel name with the number of tasks running it.
type KernelCount struct {
	Kernel string
	Count  int
}

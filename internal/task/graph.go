package task

import "fmt"

// Graph is the reference task dependence graph (TDG) of a program, built with
// the same last-writer/last-readers matching rules that the software runtime
// and the DMU implement. It is the golden model used to validate runtime
// implementations and to compute structural properties such as the critical
// path and the maximum parallelism.
//
// Edges may be duplicated when two tasks share more than one dependence; the
// DMU behaves the same way (Algorithm 1 inserts one successor entry per
// matching dependence and Algorithm 2 decrements once per entry), so keeping
// duplicates makes the golden model directly comparable.
type Graph struct {
	tasks []*Spec

	succs [][]ID
	preds [][]ID
}

// BuildGraph derives the TDG of the tasks, which must be given in creation
// (program) order. Dependence matching follows OpenMP 4.0 semantics on exact
// addresses:
//
//   - a task reading address A depends on the last writer of A (RAW);
//   - a task writing address A depends on the last writer (WAW) and on every
//     reader since that writer (WAR), and becomes the new last writer.
func BuildGraph(tasks []*Spec) *Graph {
	g := &Graph{
		tasks: tasks,
		succs: make([][]ID, len(tasks)),
		preds: make([][]ID, len(tasks)),
	}
	type depState struct {
		lastWriter      ID
		lastWriterValid bool
		readers         []ID
	}
	states := make(map[uint64]*depState)
	idx := make(map[ID]int, len(tasks))
	for i, t := range tasks {
		idx[t.ID] = i
	}
	addEdge := func(from, to ID) {
		g.succs[idx[from]] = append(g.succs[idx[from]], to)
		g.preds[idx[to]] = append(g.preds[idx[to]], from)
	}
	for _, t := range tasks {
		for _, d := range t.Deps {
			st := states[d.Addr]
			if st == nil {
				st = &depState{lastWriter: NoTask}
				states[d.Addr] = st
			}
			if st.lastWriterValid && st.lastWriter != t.ID {
				addEdge(st.lastWriter, t.ID)
			}
			if d.Dir.IsRead() {
				st.readers = append(st.readers, t.ID)
				continue
			}
			// Write or read-write: wait for all readers, become the
			// last writer.
			for _, r := range st.readers {
				if r != t.ID {
					addEdge(r, t.ID)
				}
			}
			st.readers = st.readers[:0]
			st.lastWriter = t.ID
			st.lastWriterValid = true
		}
	}
	return g
}

// BuildProgramGraph builds one graph spanning all regions of the program.
// Regions are independent for scheduling purposes (a barrier separates them),
// but the graph is still useful for whole-program statistics.
func BuildProgramGraph(p *Program) *Graph {
	return BuildGraph(p.Tasks())
}

// NumTasks returns the number of tasks in the graph.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// Succs returns the successors of task id (possibly with duplicates).
func (g *Graph) Succs(id ID) []ID { return g.succs[g.index(id)] }

// Preds returns the predecessors of task id (possibly with duplicates).
func (g *Graph) Preds(id ID) []ID { return g.preds[g.index(id)] }

// NumSuccs returns the successor count of a task, counting duplicates, which
// is what the DMU reports through get_ready_task.
func (g *Graph) NumSuccs(id ID) int { return len(g.succs[g.index(id)]) }

// NumPreds returns the predecessor count of a task, counting duplicates.
func (g *Graph) NumPreds(id ID) int { return len(g.preds[g.index(id)]) }

// NumEdges returns the total number of edges, counting duplicates.
func (g *Graph) NumEdges() int {
	n := 0
	for _, s := range g.succs {
		n += len(s)
	}
	return n
}

// Roots returns the tasks with no predecessors, in creation order.
func (g *Graph) Roots() []ID {
	var out []ID
	for i, p := range g.preds {
		if len(p) == 0 {
			out = append(out, g.tasks[i].ID)
		}
	}
	return out
}

// Leaves returns the tasks with no successors, in creation order.
func (g *Graph) Leaves() []ID {
	var out []ID
	for i, s := range g.succs {
		if len(s) == 0 {
			out = append(out, g.tasks[i].ID)
		}
	}
	return out
}

func (g *Graph) index(id ID) int {
	// Task IDs are dense and in creation order, so the common case is a
	// direct index; fall back to a scan for graphs built from slices.
	if int(id) < len(g.tasks) && g.tasks[id].ID == id {
		return int(id)
	}
	for i, t := range g.tasks {
		if t.ID == id {
			return i
		}
	}
	panic(fmt.Sprintf("task: unknown task ID %d", id))
}

// CriticalPath returns the length in cycles of the longest dependence chain,
// weighting each task by its body duration. It is a lower bound on the
// parallel execution time with unlimited cores and a zero-cost runtime.
func (g *Graph) CriticalPath() int64 {
	memo := make([]int64, len(g.tasks))
	for i := range memo {
		memo[i] = -1
	}
	var longest func(i int) int64
	longest = func(i int) int64 {
		if memo[i] >= 0 {
			return memo[i]
		}
		best := int64(0)
		for _, p := range g.preds[i] {
			if v := longest(g.index(p)); v > best {
				best = v
			}
		}
		memo[i] = best + g.tasks[i].Duration
		return memo[i]
	}
	var cp int64
	for i := range g.tasks {
		if v := longest(i); v > cp {
			cp = v
		}
	}
	return cp
}

// MaxWidth returns the largest number of tasks that are simultaneously
// available under an as-soon-as-possible topological schedule (a measure of
// the parallelism the TDG exposes, ignoring durations).
func (g *Graph) MaxWidth() int {
	n := len(g.tasks)
	level := make([]int, n)
	indeg := make([]int, n)
	for i, p := range g.preds {
		indeg[i] = len(p)
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
			level[i] = 0
		}
	}
	counts := make(map[int]int)
	processed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		processed++
		counts[level[i]]++
		for _, s := range g.succs[i] {
			si := g.index(s)
			if level[i]+1 > level[si] {
				level[si] = level[i] + 1
			}
			indeg[si]--
			if indeg[si] == 0 {
				queue = append(queue, si)
			}
		}
	}
	if processed != n {
		panic("task: dependence graph has a cycle")
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return max
}

// IsAcyclic reports whether the graph has no cycles. Programs built from
// creation-order dependence matching are acyclic by construction (edges only
// point from older to newer tasks); this is checked by tests.
func (g *Graph) IsAcyclic() bool {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i, p := range g.preds {
		indeg[i] = len(p)
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	processed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		processed++
		for _, s := range g.succs[i] {
			si := g.index(s)
			indeg[si]--
			if indeg[si] == 0 {
				queue = append(queue, si)
			}
		}
	}
	return processed == n
}

// OrderValidator checks that an observed execution order respects the golden
// TDG: a task may only start once every predecessor has finished. Runtime
// simulations feed it start/finish events; any violation is recorded. The
// validator only reads its graph, so validators of concurrent runs may share
// one.
type OrderValidator struct {
	graph      *Graph
	finished   []bool // by task index in the graph
	done       int    // number of true entries in finished
	violations []string
}

// NewOrderValidator creates a validator for the graph.
func NewOrderValidator(g *Graph) *OrderValidator {
	return &OrderValidator{graph: g, finished: make([]bool, g.NumTasks())}
}

// Start records that a task began executing and validates its predecessors.
func (v *OrderValidator) Start(id ID) {
	for _, p := range v.graph.Preds(id) {
		if !v.finished[v.graph.index(p)] {
			v.violations = append(v.violations,
				fmt.Sprintf("task %d started before predecessor %d finished", id, p))
		}
	}
}

// Finish records that a task completed.
func (v *OrderValidator) Finish(id ID) {
	i := v.graph.index(id)
	if !v.finished[i] {
		v.finished[i] = true
		v.done++
	}
}

// Violations returns all recorded ordering violations.
func (v *OrderValidator) Violations() []string { return v.violations }

// AllFinished reports whether every task in the graph has finished.
func (v *OrderValidator) AllFinished() bool {
	return v.done == v.graph.NumTasks()
}

// Err returns a single error summarizing the validator state, or nil if the
// execution was complete and respected every dependence.
func (v *OrderValidator) Err() error {
	if len(v.violations) > 0 {
		return fmt.Errorf("task: %d dependence violations, first: %s", len(v.violations), v.violations[0])
	}
	if !v.AllFinished() {
		return fmt.Errorf("task: only %d of %d tasks finished", v.done, v.graph.NumTasks())
	}
	return nil
}

// Package sched provides the software task schedulers evaluated in Section VI
// of the TDM paper: FIFO, LIFO, Locality, Successor and Age. A scheduler is a
// pure data structure organising the pool of ready tasks; the simulated
// runtime (internal/taskrt) charges the cost of every Push and Pop from the
// machine cost model, and TDM's flexibility claim is precisely that any of
// these policies can be used unmodified on top of the DMU.
package sched

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/fifo"
	"repro/internal/task"
)

// NoAffinity marks a ready task with no preferred core.
const NoAffinity = -1

// ReadyTask is the runtime's view of a task that is ready to execute.
type ReadyTask struct {
	// Spec is the task being scheduled.
	Spec *task.Spec
	// NumSuccs is the successor count known at the moment the task became
	// ready (what get_ready_task returns under TDM).
	NumSuccs int
	// Affinity is the core on which the predecessor that made this task
	// ready finished, or NoAffinity. Locality-aware policies exploit it.
	Affinity int
	// ReadySeq is a monotonically increasing sequence number assigned by
	// the scheduler at Push time; FIFO and LIFO order by it.
	ReadySeq uint64
}

// Scheduler is the policy interface. Implementations are not safe for
// concurrent use: the simulated runtime serializes accesses (and charges the
// corresponding locking costs).
type Scheduler interface {
	// Name returns the policy name.
	Name() string
	// Push adds a ready task to the pool.
	Push(t *ReadyTask)
	// Pop removes and returns the task the policy selects for the given
	// core, or nil if the pool is empty.
	Pop(core int) *ReadyTask
	// Len returns the number of queued tasks.
	Len() int
}

// Policy names accepted by New.
const (
	FIFO      = "fifo"
	LIFO      = "lifo"
	Locality  = "locality"
	Successor = "successor"
	Age       = "age"
)

// Names returns every built-in policy name in a stable order.
func Names() []string {
	return []string{FIFO, LIFO, Locality, Successor, Age}
}

// New builds a scheduler by name. cores is required by per-core policies
// (Locality); other policies ignore it.
func New(name string, cores int) (Scheduler, error) {
	switch name {
	case FIFO:
		return NewFIFO(), nil
	case LIFO:
		return NewLIFO(), nil
	case Locality:
		if cores < 1 {
			return nil, fmt.Errorf("sched: locality scheduler needs a positive core count, got %d", cores)
		}
		return NewLocality(cores), nil
	case Successor:
		return NewSuccessor(1), nil
	case Age:
		return NewAge(), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q (valid: %v)", name, Names())
	}
}

// ---------------------------------------------------------------------------
// FIFO

// FIFOScheduler schedules tasks in the order they became ready.
type FIFOScheduler struct {
	queue fifo.Queue[*ReadyTask]
	seq   uint64
}

// NewFIFO returns an empty FIFO scheduler.
func NewFIFO() *FIFOScheduler { return &FIFOScheduler{} }

// Name implements Scheduler.
func (s *FIFOScheduler) Name() string { return FIFO }

// Push implements Scheduler.
func (s *FIFOScheduler) Push(t *ReadyTask) {
	t.ReadySeq = s.seq
	s.seq++
	s.queue.Push(t)
}

// Pop implements Scheduler.
func (s *FIFOScheduler) Pop(core int) *ReadyTask {
	if s.queue.Len() == 0 {
		return nil
	}
	return s.queue.Pop()
}

// Len implements Scheduler.
func (s *FIFOScheduler) Len() int { return s.queue.Len() }

// ---------------------------------------------------------------------------
// LIFO

// LIFOScheduler schedules the most recently readied task first.
type LIFOScheduler struct {
	stack []*ReadyTask
	seq   uint64
}

// NewLIFO returns an empty LIFO scheduler.
func NewLIFO() *LIFOScheduler { return &LIFOScheduler{} }

// Name implements Scheduler.
func (s *LIFOScheduler) Name() string { return LIFO }

// Push implements Scheduler.
func (s *LIFOScheduler) Push(t *ReadyTask) {
	t.ReadySeq = s.seq
	s.seq++
	s.stack = append(s.stack, t)
}

// Pop implements Scheduler.
func (s *LIFOScheduler) Pop(core int) *ReadyTask {
	if len(s.stack) == 0 {
		return nil
	}
	t := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return t
}

// Len implements Scheduler.
func (s *LIFOScheduler) Len() int { return len(s.stack) }

// ---------------------------------------------------------------------------
// Locality

// LocalityScheduler keeps one queue per core, fed by affinity: a task made
// ready by a predecessor that finished on core c is queued on c, so the data
// the predecessor produced is likely still in c's cache. Cores first consume
// their own queue, then the global queue of affinity-less tasks, and finally
// steal the oldest task from another core to avoid starvation.
type LocalityScheduler struct {
	perCore []fifo.Queue[*ReadyTask]
	global  fifo.Queue[*ReadyTask]
	seq     uint64
	queued  int
}

// NewLocality returns a locality-aware scheduler for the given core count.
func NewLocality(cores int) *LocalityScheduler {
	return &LocalityScheduler{perCore: make([]fifo.Queue[*ReadyTask], cores)}
}

// Name implements Scheduler.
func (s *LocalityScheduler) Name() string { return Locality }

// Push implements Scheduler.
func (s *LocalityScheduler) Push(t *ReadyTask) {
	t.ReadySeq = s.seq
	s.seq++
	s.queued++
	if t.Affinity >= 0 && t.Affinity < len(s.perCore) {
		s.perCore[t.Affinity].Push(t)
		return
	}
	s.global.Push(t)
}

// Pop implements Scheduler.
func (s *LocalityScheduler) Pop(core int) *ReadyTask {
	if s.queued == 0 {
		return nil
	}
	if core >= 0 && core < len(s.perCore) && s.perCore[core].Len() > 0 {
		return s.take(&s.perCore[core])
	}
	if s.global.Len() > 0 {
		return s.take(&s.global)
	}
	// Steal the globally oldest task among the other cores' queues.
	best := -1
	var bestSeq uint64
	for c := range s.perCore {
		if s.perCore[c].Len() == 0 {
			continue
		}
		if seq := s.perCore[c].Front().ReadySeq; best == -1 || seq < bestSeq {
			best, bestSeq = c, seq
		}
	}
	if best == -1 {
		return nil
	}
	return s.take(&s.perCore[best])
}

func (s *LocalityScheduler) take(q *fifo.Queue[*ReadyTask]) *ReadyTask {
	s.queued--
	return q.Pop()
}

// Len implements Scheduler.
func (s *LocalityScheduler) Len() int { return s.queued }

// ---------------------------------------------------------------------------
// Successor

// SuccessorScheduler prioritises tasks whose successor count (at the time
// they became ready) reaches a threshold: such tasks unlock further work when
// they finish, so running them early exposes parallelism.
type SuccessorScheduler struct {
	threshold int
	high      fifo.Queue[*ReadyTask]
	low       fifo.Queue[*ReadyTask]
	seq       uint64
}

// NewSuccessor returns a successor-count scheduler with the given threshold.
func NewSuccessor(threshold int) *SuccessorScheduler {
	return &SuccessorScheduler{threshold: threshold}
}

// Name implements Scheduler.
func (s *SuccessorScheduler) Name() string { return Successor }

// Push implements Scheduler.
func (s *SuccessorScheduler) Push(t *ReadyTask) {
	t.ReadySeq = s.seq
	s.seq++
	if t.NumSuccs >= s.threshold {
		s.high.Push(t)
		return
	}
	s.low.Push(t)
}

// Pop implements Scheduler.
func (s *SuccessorScheduler) Pop(core int) *ReadyTask {
	if s.high.Len() > 0 {
		return s.high.Pop()
	}
	if s.low.Len() > 0 {
		return s.low.Pop()
	}
	return nil
}

// Len implements Scheduler.
func (s *SuccessorScheduler) Len() int { return s.high.Len() + s.low.Len() }

// ---------------------------------------------------------------------------
// Age

// AgeScheduler prioritises older tasks: among the ready tasks, the one that
// was created earliest (lowest task ID) runs first, regardless of when it
// became ready.
type AgeScheduler struct {
	h   ageHeap
	seq uint64
}

// NewAge returns an empty age scheduler.
func NewAge() *AgeScheduler { return &AgeScheduler{} }

// Name implements Scheduler.
func (s *AgeScheduler) Name() string { return Age }

// Push implements Scheduler.
func (s *AgeScheduler) Push(t *ReadyTask) {
	t.ReadySeq = s.seq
	s.seq++
	heap.Push(&s.h, t)
}

// Pop implements Scheduler.
func (s *AgeScheduler) Pop(core int) *ReadyTask {
	if s.h.Len() == 0 {
		return nil
	}
	return heap.Pop(&s.h).(*ReadyTask)
}

// Len implements Scheduler.
func (s *AgeScheduler) Len() int { return s.h.Len() }

type ageHeap []*ReadyTask

func (h ageHeap) Len() int { return len(h) }
func (h ageHeap) Less(i, j int) bool {
	if h[i].Spec.ID != h[j].Spec.ID {
		return h[i].Spec.ID < h[j].Spec.ID
	}
	return h[i].ReadySeq < h[j].ReadySeq
}
func (h ageHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *ageHeap) Push(x any)   { *h = append(*h, x.(*ReadyTask)) }
func (h *ageHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// ---------------------------------------------------------------------------

// Drain removes every queued task and returns them sorted by ReadySeq; it is
// a testing and debugging helper.
func Drain(s Scheduler) []*ReadyTask {
	var out []*ReadyTask
	for {
		t := s.Pop(0)
		if t == nil {
			break
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ReadySeq < out[j].ReadySeq })
	return out
}

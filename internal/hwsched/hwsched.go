// Package hwsched models the hardware task-scheduling structures of the two
// baselines the paper compares against (Section VI-C):
//
//   - Carbon (Kumar et al., ISCA 2007): per-core hardware ready queues with a
//     fixed FIFO policy and hardware work stealing. Dependence management
//     stays in software.
//   - Task Superscalar (Etsion et al., MICRO 2010): a single hardware ready
//     queue fed directly by the hardware dependence-tracking pipeline; both
//     dependence management and scheduling are fixed in hardware.
//
// Both structures store task descriptor addresses only; the scheduling policy
// cannot be changed by software, which is exactly the flexibility limitation
// TDM addresses.
package hwsched

import (
	"fmt"

	"repro/internal/fifo"
)

// Entry is what the hardware queues store: a task descriptor address plus the
// successor count the dependence tracker reported when the task became ready.
type Entry struct {
	DescAddr uint64
	NumSuccs int
}

// CarbonQueues models Carbon's distributed local task queues (LTQs): one
// hardware FIFO per core, with enqueue to the producing core's queue and
// hardware work stealing on dequeue.
type CarbonQueues struct {
	queues   []fifo.Queue[Entry]
	capacity int

	enqueues  uint64
	dequeues  uint64
	steals    uint64
	overflows uint64
	queued    int
	maxQueued int
}

// NewCarbonQueues builds per-core queues. capacity bounds each queue; the
// paper's Carbon configuration uses small per-core buffers backed by memory,
// so a generous capacity with overflow accounting is sufficient for the
// model.
func NewCarbonQueues(cores, capacity int) *CarbonQueues {
	if cores < 1 || capacity < 1 {
		panic(fmt.Sprintf("hwsched: invalid Carbon configuration cores=%d capacity=%d", cores, capacity))
	}
	return &CarbonQueues{queues: make([]fifo.Queue[Entry], cores), capacity: capacity}
}

// Cores returns the number of per-core queues.
func (c *CarbonQueues) Cores() int { return len(c.queues) }

// Enqueue pushes a ready task onto the given core's queue. It reports false
// on overflow (the runtime then falls back to software queuing, which the
// simulation charges at software cost).
func (c *CarbonQueues) Enqueue(core int, e Entry) bool {
	if core < 0 || core >= len(c.queues) {
		core = 0
	}
	if c.queues[core].Len() >= c.capacity {
		c.overflows++
		return false
	}
	c.enqueues++
	c.queues[core].Push(e)
	c.queued++
	if c.queued > c.maxQueued {
		c.maxQueued = c.queued
	}
	return true
}

// Dequeue pops the oldest task from the core's own queue, stealing the
// longest remote queue's head if the local queue is empty. The bool result is
// false when every queue is empty.
func (c *CarbonQueues) Dequeue(core int) (Entry, bool) {
	if core < 0 || core >= len(c.queues) {
		core = 0
	}
	if c.queues[core].Len() > 0 {
		return c.take(core), true
	}
	// Steal from the longest queue to balance load, breaking ties by the
	// lowest core index for determinism.
	victim := -1
	for i := range c.queues {
		if c.queues[i].Len() == 0 {
			continue
		}
		if victim == -1 || c.queues[i].Len() > c.queues[victim].Len() {
			victim = i
		}
	}
	if victim == -1 {
		return Entry{}, false
	}
	c.steals++
	return c.take(victim), true
}

func (c *CarbonQueues) take(core int) Entry {
	c.dequeues++
	c.queued--
	return c.queues[core].Pop()
}

// Len returns the total number of queued tasks across all cores.
func (c *CarbonQueues) Len() int { return c.queued }

// Stats reports activity counters.
func (c *CarbonQueues) Stats() CarbonStats {
	return CarbonStats{
		Enqueues:  c.enqueues,
		Dequeues:  c.dequeues,
		Steals:    c.steals,
		Overflows: c.overflows,
		MaxQueued: c.maxQueued,
	}
}

// CarbonStats are activity counters of the Carbon queues.
type CarbonStats struct {
	Enqueues  uint64
	Dequeues  uint64
	Steals    uint64
	Overflows uint64
	MaxQueued int
}

// GlobalQueue is a single hardware FIFO, the ready queue of the Task
// Superscalar pipeline.
type GlobalQueue struct {
	buf      fifo.Queue[Entry]
	capacity int

	enqueues  uint64
	dequeues  uint64
	overflows uint64
	maxQueued int
}

// NewGlobalQueue builds a bounded global hardware FIFO.
func NewGlobalQueue(capacity int) *GlobalQueue {
	if capacity < 1 {
		panic(fmt.Sprintf("hwsched: invalid global queue capacity %d", capacity))
	}
	return &GlobalQueue{capacity: capacity}
}

// Enqueue appends an entry, reporting false on overflow.
func (g *GlobalQueue) Enqueue(e Entry) bool {
	if g.buf.Len() >= g.capacity {
		g.overflows++
		return false
	}
	g.enqueues++
	g.buf.Push(e)
	g.maxQueued = max(g.maxQueued, g.buf.Len())
	return true
}

// Dequeue pops the oldest entry.
func (g *GlobalQueue) Dequeue() (Entry, bool) {
	if g.buf.Len() == 0 {
		return Entry{}, false
	}
	g.dequeues++
	return g.buf.Pop(), true
}

// Len returns the number of queued entries.
func (g *GlobalQueue) Len() int { return g.buf.Len() }

// Stats reports activity counters.
func (g *GlobalQueue) Stats() GlobalStats {
	return GlobalStats{Enqueues: g.enqueues, Dequeues: g.dequeues, Overflows: g.overflows, MaxQueued: g.maxQueued}
}

// GlobalStats are activity counters of the global queue.
type GlobalStats struct {
	Enqueues  uint64
	Dequeues  uint64
	Overflows uint64
	MaxQueued int
}

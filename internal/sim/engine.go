// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine advances a virtual clock measured in cycles and executes events
// in (time, insertion-order) order. On top of the raw event queue, sim offers
// a process abstraction (Proc) in the style of SimPy: a process is ordinary
// Go code run as a coroutine, and the engine guarantees that at most one
// process executes at any instant, so simulations are fully deterministic and
// reproducible.
//
// Processes interact with the world through blocking primitives:
//
//   - Proc.Wait advances the process by a fixed number of cycles.
//   - Signal provides condition-variable style sleeping and waking.
//   - Resource provides an exclusive, FIFO-ordered server (used, for
//     example, to model the single port of the Dependence Management Unit).
//
// The package is the substrate for the multicore machine model in
// internal/machine and the runtime systems in internal/taskrt.
//
// The event queue and the process handoff are the hot path of every
// simulated cycle, so both are built for speed: events are pooled on a free
// list (steady-state scheduling performs no allocation), the queue is an
// inlined 4-ary implicit heap specialized for the (Time, seq) key, and the
// engine hands control to a process with a runtime coroutine switch
// (iter.Pull) that bypasses the Go scheduler. A Proc.Wait whose wake-up
// would be the next event anyway skips both: it advances the clock inline,
// exactly as if the process had parked and been resumed.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Time is simulated time expressed in clock cycles.
type Time int64

// Infinity is a time value larger than any realistic simulation horizon.
const Infinity Time = 1<<62 - 1

// event is a single entry in the engine's event queue. Events are engine-
// owned and recycled through a free list: one is taken from the pool on
// Schedule and returned the moment it is popped for execution, so a
// simulation's steady state schedules events without allocating.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// next links events on the engine's free list while recycled. It is
	// nil for events that are live in the queue.
	next *event
}

// Engine is a discrete-event simulation kernel.
//
// The zero value is not usable; construct engines with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// events is a 4-ary implicit min-heap ordered by (at, seq): children
	// of slot i live in slots 4i+1..4i+4. A 4-ary layout halves the tree
	// depth of a binary heap, and the comparisons are inlined below
	// rather than dispatched through container/heap interfaces.
	events []*event

	// pool is the free list of recycled event structs, with counters
	// exposed to tests and diagnostics.
	pool        *event
	poolNew     uint64 // events allocated fresh
	poolReused  uint64 // events taken from the free list
	poolResides int    // events currently on the free list

	// procs lists every spawned process in spawn order. A slice, not a set:
	// Shutdown unwinds process coroutines by iterating it, and map iteration
	// order would make the unwind order (and any cleanup side effects in
	// process bodies) differ run to run.
	procs   []*Proc
	stopped bool

	// eventCount is the total number of events executed, exposed for
	// diagnostics and engine micro-benchmarks.
	eventCount uint64

	// procFailure records the first panic raised inside a process body; it
	// is surfaced as an error from Run.
	procFailure error

	// haltErr, when set, stops the run loop after the event currently
	// executing; Run returns it. See Halt.
	haltErr error

	// horizon is the limit of the RunUntil call in progress, or -1 outside
	// one, so Step never lets Proc.Wait advance the clock inline.
	horizon Time
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{horizon: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// EventsExecuted returns the number of events the engine has executed so far.
// A Proc.Wait advanced inline counts as the one wake-up event it replaced.
func (e *Engine) EventsExecuted() uint64 { return e.eventCount }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule registers fn to run delay cycles in the future. Schedule may be
// called both from outside the simulation (before Run) and from event
// callbacks or processes during the simulation. A negative delay is a bug in
// the caller — it would have to run in the simulated past — and panics.
//
//simlint:hotpath
func (e *Engine) Schedule(delay Time, fn func()) {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule called with negative delay %d at cycle %d", delay, e.now))
	}
	e.push(e.newEvent(e.now+delay, fn))
}

// ScheduleAt registers fn to run at absolute time at. Times in the past are
// clamped to the current time.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if fn == nil {
		panic("sim: ScheduleAt called with nil function")
	}
	if at < e.now {
		at = e.now
	}
	e.push(e.newEvent(at, fn))
}

// newEvent takes an event from the free list (or allocates one) and stamps it
// with the next sequence number.
func (e *Engine) newEvent(at Time, fn func()) *event {
	ev := e.pool
	if ev != nil {
		e.pool = ev.next
		ev.next = nil
		e.poolReused++
		e.poolResides--
	} else {
		ev = &event{}
		e.poolNew++
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	return ev
}

// recycle returns an executed event to the free list. The function reference
// is dropped so the pool does not pin closures (and their captures) live.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.next = e.pool
	e.pool = ev
	e.poolResides++
}

// less orders events by (time, sequence number).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the 4-ary heap, sifting it up to its slot.
func (e *Engine) push(ev *event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !less(ev, p) {
			break
		}
		h[i] = p
		i = parent
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event, sifting the displaced tail
// element down. The caller must ensure the heap is non-empty.
func (e *Engine) pop() *event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	moved := h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	if n > 0 {
		i := 0
		for {
			first := i<<2 + 1
			if first >= n {
				break
			}
			end := first + 4
			if end > n {
				end = n
			}
			min := first
			mv := h[first]
			for c := first + 1; c < end; c++ {
				if cv := h[c]; less(cv, mv) {
					min, mv = c, cv
				}
			}
			if !less(mv, moved) {
				break
			}
			h[i] = mv
			i = min
		}
		h[i] = moved
	}
	return top
}

// Halt requests that the run loop stop after the event that is currently
// executing, making Run (or RunUntil) return err instead of draining the
// queue. It is the engine half of cooperative cancellation: a process that
// observes an external cancellation calls Halt and then parks itself (see
// Proc.Suspend), handing control back to the run loop for good. The first
// Halt wins; later calls are ignored.
func (e *Engine) Halt(err error) {
	if err == nil {
		err = errors.New("sim: run halted")
	}
	if e.haltErr == nil {
		e.haltErr = err
	}
}

// Run executes events until the event queue drains. It returns the final
// simulated time. If the queue drains while processes are still blocked on
// signals or resources, Run returns a DeadlockError describing them.
func (e *Engine) Run() (Time, error) {
	return e.RunUntil(Infinity)
}

// RunUntil executes events until the event queue drains or the clock would
// advance beyond horizon, whichever comes first. The clock never moves
// backwards: a horizon before Now runs nothing and leaves the clock as is.
func (e *Engine) RunUntil(horizon Time) (Time, error) {
	if e.stopped {
		return e.now, fmt.Errorf("sim: engine already shut down")
	}
	if e.haltErr != nil {
		return e.now, e.haltErr
	}
	e.horizon = horizon
	defer func() { e.horizon = -1 }()
	for len(e.events) > 0 {
		next := e.events[0]
		if next.at > horizon {
			e.now = max(e.now, horizon)
			return e.now, nil
		}
		e.pop()
		e.now = next.at
		e.eventCount++
		fn := next.fn
		e.recycle(next)
		fn()
		if e.procFailure != nil {
			return e.now, e.procFailure
		}
		if e.haltErr != nil {
			return e.now, e.haltErr
		}
	}
	if blocked := e.blockedProcs(); len(blocked) > 0 {
		return e.now, &DeadlockError{Time: e.now, Blocked: blocked}
	}
	return e.now, nil
}

// Step executes exactly one event if one is pending and reports whether an
// event was executed. It is primarily useful in tests.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	next := e.pop()
	e.now = next.at
	e.eventCount++
	fn := next.fn
	e.recycle(next)
	fn()
	return true
}

// Shutdown terminates the engine. It stops every process coroutine in spawn
// order, so shutdown side effects are reproducible: a parked process unwinds
// from its park call, and the body of one that never started never executes.
// After Shutdown the engine must not be used again.
func (e *Engine) Shutdown() {
	if e.stopped {
		return
	}
	e.stopped = true
	for _, p := range e.procs {
		p.stop()
	}
}

func (e *Engine) blockedProcs() []string {
	var out []string
	for _, p := range e.procs {
		if !p.done && p.waitingOn != "" {
			out = append(out, fmt.Sprintf("%s (waiting: %s)", p.name, p.waitReason()))
		}
	}
	sort.Strings(out)
	return out
}

// DeadlockError reports processes that were still blocked when the event
// queue drained.
type DeadlockError struct {
	Time    Time
	Blocked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d; blocked processes: %s",
		d.Time, strings.Join(d.Blocked, ", "))
}

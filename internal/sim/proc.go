package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

// errKilled is used internally to unwind parked process coroutines when the
// engine shuts down.
var errKilled = errors.New("sim: process killed by engine shutdown")

// waitReasonTimer marks a process blocked in Wait; blockedProcs formats it
// together with the stored duration. Wait is the hottest park reason, so it
// must not cost a fmt.Sprintf per call.
const waitReasonTimer = "\x00timer"

// Proc is a simulation process: ordinary Go code that runs inside the engine
// and can block on simulated time, signals and resources. At most one process
// executes at any instant, which makes simulations deterministic.
//
// The process body runs as a coroutine (iter.Pull): the engine resumes it
// with next, the body parks by calling yield, and stop unwinds it. Control
// therefore passes by a direct coroutine switch, never through the Go
// scheduler.
type Proc struct {
	eng  *Engine
	name string

	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// resumeFn is the pre-bound wake-up event, scheduled every time the
	// process must resume (its first run included). Binding it once at
	// spawn keeps Wait, Signal and Resource wake-ups allocation-free.
	resumeFn func()

	done      bool
	waitingOn string
	waitArg   Time
}

// Spawn creates a new process named name and schedules it to start at the
// current simulated time. The function fn runs as a coroutine that executes
// only while the engine has handed control to it, so code inside fn does not
// need any synchronization with other processes.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.SpawnAt(0, name, fn)
}

// SpawnAt is like Spawn but delays the start of the process by delay cycles.
// The coroutine exists from this call on, so a process that never starts
// still holds it until Engine.Shutdown releases it.
func (e *Engine) SpawnAt(delay Time, name string, fn func(*Proc)) *Proc {
	if fn == nil {
		panic("sim: Spawn called with nil function")
	}
	p := &Proc{eng: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
	p.resumeFn = func() { e.resumeProc(p) }
	e.procs = append(e.procs, p)
	e.Schedule(delay, p.resumeFn)
	return p
}

// run executes the process body and records a failure for the engine.
func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || !errors.Is(err, errKilled) {
				p.eng.procFailure = fmt.Errorf(
					"sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
			// Engine-shutdown kills unwind quietly.
		}
		p.done = true
	}()
	fn(p)
}

// park hands control back to the engine until the engine resumes this
// process. reason is reported in deadlock diagnostics.
//
//simlint:hotpath
func (p *Proc) park(reason string) {
	p.waitingOn = reason
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
	p.waitingOn = ""
}

// waitReason renders the diagnostic description of what the process is
// blocked on. The hot park paths store precomputed strings and defer
// formatting to this (cold) accessor.
func (p *Proc) waitReason() string {
	if p.waitingOn == waitReasonTimer {
		return fmt.Sprintf("wait %d cycles", p.waitArg)
	}
	return p.waitingOn
}

// resumeProc runs a process until it parks again or finishes; for a finished
// process next returns at once. It must only be called from event callbacks.
//
//simlint:hotpath
func (e *Engine) resumeProc(p *Proc) {
	p.next()
}

// Suspend parks the process indefinitely: nothing ever resumes it, and its
// coroutine is unwound by Engine.Shutdown. It is the process half of
// cooperative cancellation — a process that observes an external cancellation
// calls Engine.Halt and then Suspend, so the run loop regains control and
// returns the halt error while the process stays quiescent until shutdown.
// reason is reported in diagnostics.
func (p *Proc) Suspend(reason string) {
	if reason == "" {
		reason = "suspended"
	}
	// No wake-up source is registered, so park only returns if the engine is
	// shut down (which unwinds the coroutine via a panic inside park). The
	// loop guards against a stray resume ever reaching a suspended process.
	for {
		p.park(reason)
	}
}

// Wait blocks the process for d cycles of simulated time. A non-positive
// duration still yields to other events scheduled at the current time.
// Wait is the inner loop of every simulated process: it must stay
// allocation-free (the resume closure is precomputed at spawn), which
// hotalloc enforces over Wait and everything it reaches.
//
// When the wake-up would be the next event RunUntil executes (no halt or
// failure pending, within the horizon, every queued event strictly later),
// Wait advances the clock without parking. It still takes the wake-up's
// sequence number and counts it as executed, as parking would.
//
//simlint:hotpath
func (p *Proc) Wait(d Time) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	if at := e.now + d; at <= e.horizon && e.haltErr == nil && e.procFailure == nil &&
		(len(e.events) == 0 || e.events[0].at > at) {
		e.now = at
		e.seq++
		e.eventCount++
		return
	}
	e.Schedule(d, p.resumeFn)
	p.waitArg = d
	p.park(waitReasonTimer)
}

// WaitUntil blocks the process until absolute simulated time at. If at is in
// the past, WaitUntil yields once and returns.
func (p *Proc) WaitUntil(at Time) {
	d := at - p.eng.now
	p.Wait(d)
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

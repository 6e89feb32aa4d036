package sim

import "fmt"

// Signal is a condition-variable-like synchronization primitive for
// simulation processes. Processes block on a signal with Wait (or WaitFor)
// and are woken by Broadcast or Notify. Wake-ups are delivered through the
// event queue at the current simulated time, preserving determinism.
type Signal struct {
	eng     *Engine
	name    string
	waiters []*Proc

	// parkReason is precomputed so blocking on the signal does not format
	// a string on every park.
	parkReason string
}

// NewSignal creates a named signal bound to the engine.
func (e *Engine) NewSignal(name string) *Signal {
	return &Signal{eng: e, name: name, parkReason: fmt.Sprintf("signal %q", name)}
}

// Name returns the signal's name.
func (s *Signal) Name() string { return s.name }

// Waiting returns the number of processes currently blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Wait blocks the process until the signal is broadcast (or the process is
// individually notified). Like condition variables, wake-ups may be spurious
// with respect to the caller's logical condition; use WaitFor to re-check a
// predicate.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park(s.parkReason)
}

// WaitFor blocks the process until cond() evaluates to true, re-checking the
// condition every time the signal is woken. If the condition already holds,
// WaitFor returns immediately without blocking.
func (s *Signal) WaitFor(p *Proc, cond func() bool) {
	for !cond() {
		s.Wait(p)
	}
}

// Broadcast wakes every process currently waiting on the signal.
func (s *Signal) Broadcast() {
	if len(s.waiters) == 0 {
		return
	}
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		s.eng.Schedule(0, w.resumeFn)
	}
}

// Notify wakes the process that has been waiting the longest, if any.
func (s *Signal) Notify() {
	if len(s.waiters) == 0 {
		return
	}
	w := s.waiters[0]
	s.waiters = s.waiters[1:]
	s.eng.Schedule(0, w.resumeFn)
}

// Resource is an exclusive server with FIFO admission. It models hardware or
// software entities that serve one request at a time, such as the DMU
// instruction port or a lock in the runtime system.
type Resource struct {
	eng   *Engine
	name  string
	owner *Proc
	queue []*Proc

	// parkReason is precomputed; contending for a resource is on the hot
	// path of every DMU instruction.
	parkReason string

	// contended counts Acquire calls that had to wait.
	contended uint64
}

// NewResource creates a named exclusive resource bound to the engine.
func (e *Engine) NewResource(name string) *Resource {
	return &Resource{eng: e, name: name, parkReason: fmt.Sprintf("resource %q", name)}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Acquire grants the process exclusive ownership of the resource, blocking in
// FIFO order if another process currently owns it.
func (r *Resource) Acquire(p *Proc) {
	if r.owner == nil {
		r.owner = p
		return
	}
	r.contended++
	r.queue = append(r.queue, p)
	p.park(r.parkReason)
}

// TryAcquire grants ownership only if the resource is currently free and
// reports whether it did.
func (r *Resource) TryAcquire(p *Proc) bool {
	if r.owner != nil {
		return false
	}
	r.owner = p
	return true
}

// Release relinquishes ownership. If other processes are queued, ownership
// transfers to the longest-waiting one and it is woken at the current time.
func (r *Resource) Release(p *Proc) {
	if r.owner != p {
		panic(fmt.Sprintf("sim: process %q released resource %q it does not own", p.name, r.name))
	}
	if len(r.queue) == 0 {
		r.owner = nil
		return
	}
	next := r.queue[0]
	r.queue = r.queue[1:]
	r.owner = next
	r.eng.Schedule(0, next.resumeFn)
}

// Contended returns how many Acquire calls had to wait.
func (r *Resource) Contended() uint64 { return r.contended }

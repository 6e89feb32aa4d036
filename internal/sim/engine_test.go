package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

// Regression test: scheduling at a negative delay used to be silently
// clamped to zero, which hid caller bugs (an event meant for the simulated
// past); it now panics with a clear message.
func TestScheduleNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Schedule(-5, ...) did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "negative delay") {
			t.Fatalf("panic = %v, want message mentioning the negative delay", r)
		}
	}()
	e.Schedule(-5, func() {})
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.Schedule(100, func() {
		e.ScheduleAt(50, func() { at = e.Now() })
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 100 {
		t.Fatalf("past-scheduled event ran at %d, want clamped to 100", at)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(1000, func() { ran = true })
	end, err := e.RunUntil(500)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	if end != 500 {
		t.Fatalf("end = %d, want 500", end)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	// Resuming the run past the horizon executes the event.
	end, err = e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran || end != 1000 {
		t.Fatalf("after resume: ran=%v end=%d", ran, end)
	}
}

// Regression test: RunUntil used to set the clock to its horizon whenever the
// next event lay beyond it, even a horizon before Now, so an event scheduled
// afterwards ran in the simulated past.
func TestRunUntilNeverRewindsClock(t *testing.T) {
	e := NewEngine()
	e.Schedule(1000, func() {})
	if end, err := e.RunUntil(500); err != nil || end != 500 {
		t.Fatalf("RunUntil(500) = %d, %v; want 500, nil", end, err)
	}
	end, err := e.RunUntil(200)
	if err != nil || end != 500 || e.Now() != 500 {
		t.Fatalf("RunUntil(200) = %d, %v, Now %d; want the clock to stay at 500", end, err, e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after a horizon in the past, want 1", e.Pending())
	}
	var at Time = -1
	e.Schedule(0, func() { at = e.Now() })
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 500 {
		t.Fatalf("zero-delay event ran at cycle %d, want 500", at)
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++ })
	e.Schedule(2, func() { count++ })
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if !e.Step() || count != 2 {
		t.Fatalf("second Step failed, count=%d", count)
	}
	if e.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(15, func() {
			times = append(times, e.Now())
		})
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(times) != 2 || times[0] != 10 || times[1] != 25 {
		t.Fatalf("times = %v, want [10 25]", times)
	}
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	e.Schedule(0, nil)
}

func TestProcWaitAdvancesTime(t *testing.T) {
	e := NewEngine()
	var observed []Time
	e.Spawn("waiter", func(p *Proc) {
		observed = append(observed, p.Now())
		p.Wait(100)
		observed = append(observed, p.Now())
		p.Wait(50)
		observed = append(observed, p.Now())
	})
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{0, 100, 150}
	for i := range want {
		if observed[i] != want[i] {
			t.Fatalf("observed = %v, want %v", observed, want)
		}
	}
	if end != 150 {
		t.Fatalf("end = %d, want 150", end)
	}
}

func TestProcWaitUntil(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("p", func(p *Proc) {
		p.Wait(10)
		p.WaitUntil(200)
		at = p.Now()
		p.WaitUntil(50) // in the past: should not rewind time
		if p.Now() != 200 {
			t.Errorf("WaitUntil in the past moved time to %d", p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 200 {
		t.Fatalf("at = %d, want 200", at)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "a")
				p.Wait(10)
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "b")
				p.Wait(10)
			}
		})
		if _, err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log
	}
	first := run()
	for i := 0; i < 20; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("non-deterministic length: %v vs %v", first, again)
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("non-deterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestSpawnAtDelaysStart(t *testing.T) {
	e := NewEngine()
	var start Time = -1
	e.SpawnAt(77, "late", func(p *Proc) { start = p.Now() })
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if start != 77 {
		t.Fatalf("start = %d, want 77", start)
	}
}

func TestProcPanicSurfacesAsError(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	e.Spawn("boom", func(p *Proc) {
		p.Wait(5)
		panic("kaboom")
	})
	_, err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil error after process panic")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	s := e.NewSignal("never")
	e.Spawn("stuck", func(p *Proc) {
		s.Wait(p)
	})
	_, err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 process", dl.Blocked)
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("go")
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Wait(100)
		if s.Waiting() != 5 {
			t.Errorf("waiting = %d, want 5", s.Waiting())
		}
		s.Broadcast()
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestSignalNotifyWakesOneFIFO(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("one")
	var woken []string
	spawnWaiter := func(name string) {
		e.Spawn(name, func(p *Proc) {
			s.Wait(p)
			woken = append(woken, name)
		})
	}
	spawnWaiter("first")
	e.Schedule(1, func() {}) // force time separation of spawns
	spawnWaiter("second")
	e.Spawn("waker", func(p *Proc) {
		p.Wait(10)
		s.Notify()
		p.Wait(10)
		s.Notify()
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(woken) != 2 || woken[0] != "first" || woken[1] != "second" {
		t.Fatalf("woken = %v, want [first second]", woken)
	}
}

func TestSignalWaitFor(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("cond")
	counter := 0
	var proceededAt Time
	e.Spawn("consumer", func(p *Proc) {
		s.WaitFor(p, func() bool { return counter >= 3 })
		proceededAt = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
			counter++
			s.Broadcast()
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if proceededAt != 30 {
		t.Fatalf("proceeded at %d, want 30", proceededAt)
	}
}

func TestSignalWaitForAlreadyTrue(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("cond")
	ran := false
	e.Spawn("p", func(p *Proc) {
		s.WaitFor(p, func() bool { return true })
		ran = true
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("WaitFor with true condition blocked")
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("port")
	inside := 0
	maxInside := 0
	for i := 0; i < 8; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Wait(10)
			inside--
			r.Release(p)
		})
	}
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxInside != 1 {
		t.Fatalf("maxInside = %d, want 1 (mutual exclusion violated)", maxInside)
	}
	if end != 80 {
		t.Fatalf("end = %d, want 80 (8 serialized 10-cycle sections)", end)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("port")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.SpawnAt(Time(i), "user", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Wait(100)
			r.Release(p)
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
	if r.Contended() != 4 {
		t.Fatalf("contended = %d, want 4", r.Contended())
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("port")
	var got []bool
	e.Spawn("a", func(p *Proc) {
		if !r.TryAcquire(p) {
			t.Error("first TryAcquire failed")
		}
		p.Wait(50)
		r.Release(p)
	})
	e.SpawnAt(10, "b", func(p *Proc) {
		got = append(got, r.TryAcquire(p)) // busy: false
		p.Wait(60)
		got = append(got, r.TryAcquire(p)) // free: true
		r.Release(p)
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] || !got[1] {
		t.Fatalf("got = %v, want [false true]", got)
	}
}

func TestResourceReleaseByNonOwnerPanics(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	r := e.NewResource("port")
	e.Spawn("owner", func(p *Proc) {
		r.Acquire(p)
		p.Wait(100)
		r.Release(p)
	})
	e.SpawnAt(1, "thief", func(p *Proc) {
		r.Release(p)
	})
	if _, err := e.Run(); err == nil {
		t.Fatal("expected error from non-owner release")
	}
}

func TestShutdownUnwindsParkedProcs(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("never")
	for i := 0; i < 4; i++ {
		e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	}
	_, err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	e.Shutdown()
	// Calling Shutdown twice must be safe.
	e.Shutdown()
	if _, err := e.Run(); err == nil {
		t.Fatal("Run after Shutdown should fail")
	}
}

// TestShutdownReleasesGoroutines pins that Shutdown leaves no goroutine
// behind whatever state a process is in: finished, parked on a signal, queued
// on a held resource, suspended, or spawned but never started. A process
// coroutine exists from Spawn on, so the unstarted one holds a goroutine too.
// The second engine's run ends in a process panic with others still parked.
func TestShutdownReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	e := NewEngine()
	s := e.NewSignal("never")
	r := e.NewResource("held")
	e.Spawn("finished", func(p *Proc) { r.Acquire(p) }) // returns holding r
	e.Spawn("parked", func(p *Proc) { s.Wait(p) })
	e.Spawn("queued", func(p *Proc) { r.Acquire(p) })
	e.Spawn("suspended", func(p *Proc) { p.Suspend("") })
	e.SpawnAt(1000, "unstarted", func(p *Proc) { t.Error("process beyond the horizon ran") })
	if _, err := e.RunUntil(100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if s.Waiting() != 1 || len(r.queue) != 1 || e.Pending() != 1 {
		t.Fatalf("signal waiters %d, resource queue %d, pending %d; want 1 each",
			s.Waiting(), len(r.queue), e.Pending())
	}

	f := NewEngine()
	never := f.NewSignal("never")
	for i := 0; i < 3; i++ {
		f.Spawn("parked", func(p *Proc) { never.Wait(p) })
	}
	f.Spawn("boom", func(p *Proc) {
		p.Wait(5)
		panic("kaboom")
	})
	if _, err := f.Run(); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Run = %v, want the process panic", err)
	}

	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("%d goroutines with processes parked, want more than the baseline %d", n, base)
	}
	for _, eng := range []*Engine{e, f} {
		eng.Shutdown()
		eng.Shutdown()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, want the baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEventsExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		e.Schedule(Time(i), func() {})
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.EventsExecuted() != 17 {
		t.Fatalf("EventsExecuted = %d, want 17", e.EventsExecuted())
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the final clock equals the maximum delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var max Time
		for _, r := range raw {
			d := Time(r)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		end, err := e.Run()
		if err != nil {
			return false
		}
		if end != max {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain of Wait calls accumulates exactly the sum of its delays.
func TestPropertyWaitAccumulates(t *testing.T) {
	f := func(raw []uint8) bool {
		e := NewEngine()
		var sum Time
		for _, r := range raw {
			sum += Time(r)
		}
		var final Time = -1
		e.Spawn("p", func(p *Proc) {
			for _, r := range raw {
				p.Wait(Time(r))
			}
			final = p.Now()
		})
		end, err := e.Run()
		if err != nil {
			return false
		}
		return final == sum && end == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with N contending processes each holding an exclusive resource
// for d cycles, the makespan is exactly N*d.
func TestPropertyResourceSerializes(t *testing.T) {
	f := func(n uint8, d uint8) bool {
		workers := int(n%16) + 1
		hold := Time(d%100) + 1
		e := NewEngine()
		r := e.NewResource("x")
		for i := 0; i < workers; i++ {
			e.Spawn("w", func(p *Proc) {
				r.Acquire(p)
				p.Wait(hold)
				r.Release(p)
			})
		}
		end, err := e.Run()
		if err != nil {
			return false
		}
		return end == Time(workers)*hold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownUnwindOrderDeterministic pins the order Engine.Shutdown unwinds
// parked process goroutines: spawn order, every run. The engine used to keep
// its process set in a map, so the kill order — and any cleanup side effects
// in process bodies — was randomized per run.
func TestShutdownUnwindOrderDeterministic(t *testing.T) {
	const procs = 16
	want := make([]string, procs)
	for i := range want {
		want[i] = fmt.Sprintf("p%02d", i)
	}
	for trial := 0; trial < 10; trial++ {
		e := NewEngine()
		var unwound []string
		for i := 0; i < procs; i++ {
			name := want[i]
			e.Spawn(name, func(p *Proc) {
				defer func() { unwound = append(unwound, name) }()
				p.Suspend("pinned")
			})
		}
		if _, err := e.Run(); err == nil {
			t.Fatal("expected a deadlock error with every process suspended")
		}
		e.Shutdown()
		if len(unwound) != procs {
			t.Fatalf("trial %d: unwound %d of %d processes", trial, len(unwound), procs)
		}
		for i, name := range unwound {
			if name != want[i] {
				t.Fatalf("trial %d: unwind order %v, want spawn order %v", trial, unwound, want)
			}
		}
	}
}

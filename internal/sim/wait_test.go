package sim

import (
	"errors"
	"math/rand"
	"testing"
)

// mixStep is one logged step of a wait-mix scenario: the cycle it completed
// at, the process that took it, and its index in that process's script
// (negative for a plain event the process scheduled).
type mixStep struct {
	at   Time
	proc int
	step int
}

// mixOp is one scripted operation of a wait-mix process.
type mixOp struct {
	kind  int // one of the op* constants
	d     Time
	child []mixOp // opSpawn: the child's script
}

const (
	opWait  = iota // Wait(d)
	opHold         // Acquire the resource, Wait(d), Release
	opPost         // add a token and broadcast the signal
	opTake         // wait for a token on the signal and take it
	opEvent        // Schedule a plain event d cycles ahead
	opSpawn        // SpawnAt(d) a child running its own script
)

// waitMix is a seeded random mix of waits, resource holds, signal traffic,
// plain events and delayed spawns: one script per root process.
type waitMix [][]mixOp

func newWaitMix(seed int64) waitMix {
	rng := rand.New(rand.NewSource(seed))
	// Delays come from a small set so most wake-ups tie with events already
	// queued for the same cycle.
	delays := []Time{0, 1, 1, 2, 3, 5}
	var m waitMix
	// Producers post tokens, consumers take them, and a consumer never takes
	// while holding the resource, so every take is eventually served as long
	// as no more tokens are taken than posted.
	posts, takes := 0, 0
	var script func(n int, consumer, spawn bool) []mixOp
	script = func(n int, consumer, spawn bool) []mixOp {
		ops := make([]mixOp, 0, n)
		for i := 0; i < n; i++ {
			op := mixOp{kind: opWait, d: delays[rng.Intn(len(delays))]}
			switch r := rng.Intn(10); {
			case r < 4:
			case r < 6:
				op.kind = opHold
			case r < 7:
				op.kind = opEvent
			case r < 8 && spawn:
				op.kind = opSpawn
				op.child = script(3+rng.Intn(6), false, false)
			case r < 10 && consumer:
				op.kind = opTake
				takes++
			case r < 10:
				op.kind = opPost
				posts++
			}
			ops = append(ops, op)
		}
		return ops
	}
	for p, n := 0, 3+rng.Intn(6); p < n; p++ {
		m = append(m, script(10+rng.Intn(30), p%3 == 2, true))
	}
	for ; posts < takes; posts++ {
		m[0] = append(m[0], mixOp{kind: opPost})
	}
	return m
}

// spawn starts the mix's processes on e and returns the log they fill.
func (m waitMix) spawn(e *Engine) *[]mixStep {
	log := &[]mixStep{}
	res := e.NewResource("r")
	sig := e.NewSignal("s")
	tokens, procs := 0, 0
	var start func(delay Time, ops []mixOp)
	start = func(delay Time, ops []mixOp) {
		id := procs
		procs++
		e.SpawnAt(delay, "mix", func(p *Proc) {
			for i, op := range ops {
				switch op.kind {
				case opWait:
					p.Wait(op.d)
				case opHold:
					res.Acquire(p)
					p.Wait(op.d)
					res.Release(p)
				case opPost:
					tokens++
					sig.Broadcast()
				case opTake:
					sig.WaitFor(p, func() bool { return tokens > 0 })
					tokens--
				case opEvent:
					step := -1 - i
					e.Schedule(op.d, func() { *log = append(*log, mixStep{e.Now(), id, step}) })
				case opSpawn:
					start(op.d, op.child)
				}
				*log = append(*log, mixStep{p.Now(), id, i})
			}
		})
	}
	for i, ops := range m {
		start(Time(i%2), ops)
	}
	return log
}

// mixRun is what one drive of a wait mix leaves behind.
type mixRun struct {
	log       []mixStep
	now       Time
	seq       uint64
	executed  uint64
	scheduled uint64
}

func driveMix(t *testing.T, m waitMix, drive func(*Engine) error) mixRun {
	t.Helper()
	e := NewEngine()
	log := m.spawn(e)
	if err := drive(e); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
	e.Shutdown()
	return mixRun{*log, e.Now(), e.seq, e.EventsExecuted(), e.poolNew + e.poolReused}
}

// TestWaitInlineMatchesStep runs seeded random wait mixes through Run, and
// through RunUntil at random horizons, against a Step loop. Step never
// advances a wait inline, so it is the reference: the (time, process, step)
// sequences, the final clock, the sequence counter and the executed-event
// count must all match it, while Run must schedule fewer events.
func TestWaitInlineMatchesStep(t *testing.T) {
	var runScheduled, stepScheduled uint64
	for seed := int64(1); seed <= 200; seed++ {
		m := newWaitMix(seed)
		ref := driveMix(t, m, func(e *Engine) error {
			for e.Step() {
			}
			return nil
		})
		if ref.scheduled != ref.executed {
			t.Fatalf("seed %d: Step executed %d events but scheduled %d", seed, ref.executed, ref.scheduled)
		}
		run := driveMix(t, m, func(e *Engine) error {
			_, err := e.Run()
			return err
		})
		rng := rand.New(rand.NewSource(seed))
		chunked := driveMix(t, m, func(e *Engine) error {
			for h := Time(0); e.Pending() > 0; h += Time(rng.Intn(4)) {
				if _, err := e.RunUntil(h); err != nil {
					return err
				}
			}
			return nil
		})
		for _, side := range []struct {
			name string
			got  mixRun
		}{{"Run", run}, {"RunUntil", chunked}} {
			got := side.got
			for i := range min(len(got.log), len(ref.log)) {
				if got.log[i] != ref.log[i] {
					t.Fatalf("seed %d: %s step %d is %+v, Step ran %+v", seed, side.name, i, got.log[i], ref.log[i])
				}
			}
			if len(got.log) != len(ref.log) {
				t.Fatalf("seed %d: %s logged %d steps, Step %d", seed, side.name, len(got.log), len(ref.log))
			}
			if got.now != ref.now || got.seq != ref.seq || got.executed != ref.executed {
				t.Fatalf("seed %d: %s ended at now=%d seq=%d executed=%d, Step at now=%d seq=%d executed=%d",
					seed, side.name, got.now, got.seq, got.executed, ref.now, ref.seq, ref.executed)
			}
		}
		runScheduled += run.scheduled
		stepScheduled += ref.executed
	}
	if runScheduled >= stepScheduled {
		t.Fatalf("Run scheduled %d events, Step %d: no wait advanced inline", runScheduled, stepScheduled)
	}
}

// TestWaitAfterHaltParks: a process that halts the engine and then waits
// parks, so Run returns the halt error before the process moves on. A
// pending process failure stops the inline advance the same way.
func TestWaitAfterHaltParks(t *testing.T) {
	e := NewEngine()
	halt := errors.New("halt")
	moved := false
	e.Spawn("p", func(p *Proc) {
		p.Wait(2)
		e.Halt(halt)
		p.Wait(1)
		moved = true
	})
	if _, err := e.Run(); !errors.Is(err, halt) {
		t.Fatalf("Run = %v, want the halt error", err)
	}
	if moved || e.Now() != 2 || e.Pending() != 1 {
		t.Fatalf("after halt: moved=%v now=%d pending=%d, want false/2/1", moved, e.Now(), e.Pending())
	}
	e.Shutdown()

	// A failed process likewise stops every later run after one event, so
	// a process resumed by that event parks at its first wait.
	e = NewEngine()
	moved = false
	e.Spawn("bad", func(*Proc) { panic("boom") })
	e.Spawn("p", func(p *Proc) {
		p.Wait(1)
		moved = true
	})
	for range 2 {
		if _, err := e.Run(); err == nil {
			t.Fatal("Run after a process failure returned no error")
		}
	}
	if moved || e.Now() != 0 || e.Pending() != 1 {
		t.Fatalf("after failure: moved=%v now=%d pending=%d, want false/0/1", moved, e.Now(), e.Pending())
	}
	e.Shutdown()
}

// TestWaitAcrossHorizonParks: a wait that ends on the horizon advances
// inline; one that crosses it parks, leaves the clock at the horizon, and
// resumes at its own cycle on a later call.
func TestWaitAcrossHorizonParks(t *testing.T) {
	e := NewEngine()
	var woke []Time
	e.Spawn("p", func(p *Proc) {
		p.Wait(5)
		woke = append(woke, p.Now())
		p.Wait(3)
		woke = append(woke, p.Now())
	})
	if now, err := e.RunUntil(5); err != nil || now != 5 {
		t.Fatalf("RunUntil(5) = %d, %v", now, err)
	}
	if now, err := e.RunUntil(7); err != nil || now != 7 {
		t.Fatalf("RunUntil(7) = %d, %v", now, err)
	}
	if len(woke) != 1 || woke[0] != 5 || e.Pending() != 1 {
		t.Fatalf("before the crossing wait ends: woke=%v pending=%d, want [5] and 1", woke, e.Pending())
	}
	if now, err := e.RunUntil(20); err != nil || now != 8 {
		t.Fatalf("RunUntil(20) = %d, %v, want 8", now, err)
	}
	if len(woke) != 2 || woke[1] != 8 {
		t.Fatalf("woke at %v, want [5 8]", woke)
	}
	// The spawn and the crossing wait were queued; the wait on the horizon
	// was not, yet all three count as executed.
	if scheduled := e.poolNew + e.poolReused; scheduled != 2 || e.EventsExecuted() != 3 {
		t.Fatalf("scheduled %d events and executed %d, want 2 and 3", scheduled, e.EventsExecuted())
	}
}

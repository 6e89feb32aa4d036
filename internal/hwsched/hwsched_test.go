package hwsched

import (
	"testing"
	"testing/quick"
)

func TestCarbonLocalFIFO(t *testing.T) {
	c := NewCarbonQueues(4, 16)
	for i := uint64(0); i < 5; i++ {
		if !c.Enqueue(1, Entry{DescAddr: i}) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	for i := uint64(0); i < 5; i++ {
		e, ok := c.Dequeue(1)
		if !ok || e.DescAddr != i {
			t.Fatalf("dequeue %d = (%v,%v)", i, e, ok)
		}
	}
	if _, ok := c.Dequeue(1); ok {
		t.Fatal("dequeue from empty queues succeeded")
	}
}

func TestCarbonStealing(t *testing.T) {
	c := NewCarbonQueues(4, 16)
	c.Enqueue(0, Entry{DescAddr: 100})
	c.Enqueue(0, Entry{DescAddr: 101})
	c.Enqueue(2, Entry{DescAddr: 200})
	// Core 3 has nothing local: it steals from the longest queue (core 0).
	e, ok := c.Dequeue(3)
	if !ok || e.DescAddr != 100 {
		t.Fatalf("steal = (%v,%v), want head of core 0", e, ok)
	}
	if c.Stats().Steals != 1 {
		t.Fatalf("steals = %d, want 1", c.Stats().Steals)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCarbonOverflow(t *testing.T) {
	c := NewCarbonQueues(2, 2)
	if !c.Enqueue(0, Entry{}) || !c.Enqueue(0, Entry{}) {
		t.Fatal("enqueues below capacity failed")
	}
	if c.Enqueue(0, Entry{}) {
		t.Fatal("enqueue beyond capacity succeeded")
	}
	if c.Stats().Overflows != 1 {
		t.Fatalf("overflows = %d, want 1", c.Stats().Overflows)
	}
	// The other core's queue is unaffected.
	if !c.Enqueue(1, Entry{}) {
		t.Fatal("enqueue to other core failed")
	}
}

func TestCarbonOutOfRangeCoreClamped(t *testing.T) {
	c := NewCarbonQueues(2, 4)
	if !c.Enqueue(-1, Entry{DescAddr: 1}) {
		t.Fatal("enqueue with negative core failed")
	}
	if e, ok := c.Dequeue(99); !ok || e.DescAddr != 1 {
		t.Fatal("dequeue with out-of-range core failed")
	}
}

func TestCarbonInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewCarbonQueues(0, 4)
}

// Property: Carbon queues conserve tasks regardless of the enqueue/dequeue
// core pattern.
func TestPropertyCarbonConservation(t *testing.T) {
	f := func(ops []uint16, cores uint8) bool {
		n := int(cores%8) + 1
		c := NewCarbonQueues(n, 1024)
		inFlight := make(map[uint64]int)
		var next uint64
		for _, op := range ops {
			core := int(op) % n
			if op%3 != 0 {
				if c.Enqueue(core, Entry{DescAddr: next}) {
					inFlight[next]++
					next++
				}
			} else if e, ok := c.Dequeue(core); ok {
				inFlight[e.DescAddr]--
				if inFlight[e.DescAddr] == 0 {
					delete(inFlight, e.DescAddr)
				}
			}
		}
		for c.Len() > 0 {
			e, ok := c.Dequeue(0)
			if !ok {
				return false
			}
			inFlight[e.DescAddr]--
			if inFlight[e.DescAddr] == 0 {
				delete(inFlight, e.DescAddr)
			}
		}
		return len(inFlight) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: stealing always returns a task when any queue is non-empty.
func TestPropertyCarbonStealNeverMissesWork(t *testing.T) {
	f := func(placement []uint8) bool {
		c := NewCarbonQueues(8, 1024)
		for i, p := range placement {
			c.Enqueue(int(p)%8, Entry{DescAddr: uint64(i)})
		}
		for i := 0; i < len(placement); i++ {
			if _, ok := c.Dequeue(7); !ok {
				return false
			}
		}
		_, ok := c.Dequeue(0)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

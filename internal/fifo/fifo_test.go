package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice drives random pushes and pops through a Queue and a
// plain slice model, across many wrap-arounds and growths.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var model []int
	for i := 0; i < 20000; i++ {
		// Pushes are two ops in three in the first half and one in three in
		// the second, so the queue both grows and drains.
		push := rng.Intn(3) > 0
		if i >= 10000 {
			push = !push
		}
		if push || len(model) == 0 {
			q.Push(i)
			model = append(model, i)
		} else {
			if got := q.Front(); got != model[0] {
				t.Fatalf("op %d: Front = %d, want %d", i, got, model[0])
			}
			if got := q.Pop(); got != model[0] {
				t.Fatalf("op %d: Pop = %d, want %d", i, got, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, want %d", i, q.Len(), len(model))
		}
	}
}

// TestQueueKeepsItsArray: a queue cycling below its capacity never grows,
// and a popped element is not kept alive by the ring.
func TestQueueKeepsItsArray(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 5; i++ {
		q.Push(new(int))
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.Push(nil)
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("push/pop below capacity allocated %.1f times", allocs)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, v := range q.buf {
		if v != nil {
			t.Fatalf("slot %d still references a popped element", i)
		}
	}
}

func TestEmptyQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of an empty queue did not panic")
		}
	}()
	var q Queue[int]
	q.Push(1)
	q.Pop()
	q.Pop()
}

// Package fifo provides the first-in, first-out queue behind the software
// schedulers' ready pools (internal/sched), the hardware ready queues
// (internal/hwsched) and the DMU's ready queue (internal/dmu). Popping the
// head of a slice by reslicing (q = q[1:]) strands the popped prefix, so
// every push past capacity reallocates; this queue is a ring that keeps its
// backing array and doubles it only when full.
package fifo

// Queue is a FIFO queue. The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T // ring storage; len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int // number of queued elements
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the oldest element without removing it. The queue must not
// be empty.
func (q *Queue[T]) Front() T {
	if q.n == 0 {
		panic("fifo: Front of an empty queue")
	}
	return q.buf[q.head]
}

// Pop removes and returns the oldest element. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.Front()
	var zero T
	q.buf[q.head] = zero // the queue must not keep a popped element alive
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring, unwrapping it so the oldest element lands first.
func (q *Queue[T]) grow() {
	buf := make([]T, max(2*len(q.buf), 8))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

package dmu

import "fmt"

// noList marks a task or dependence that has no list allocated.
const noList = -1

// listEntry is one SRAM row of a list array: up to elemsPer elements plus a
// next pointer (Figure 5). The next pointer equals the entry's own index when
// the list terminates in this entry.
type listEntry struct {
	used  bool
	elems []int32
	next  int
}

// listArray models the successor, dependence and reader list arrays: SRAM
// storage for variable-length lists laid out like UNIX filesystem inodes
// (Section III-B2). Every method returns the number of entry accesses it
// performed so the DMU can convert them to cycles.
type listArray struct {
	name     string
	entries  []listEntry
	elemsPer int
	// free is a FIFO ring of unallocated entry indices: freeLen of them,
	// the oldest at freeHead.
	free     []int
	freeHead int
	freeLen  int

	// Statistics.
	accesses      uint64
	inUse         int
	maxInUse      int
	allocFailures uint64
}

func newListArray(name string, entries, elemsPer int) *listArray {
	la := &listArray{
		name:     name,
		entries:  make([]listEntry, entries),
		elemsPer: elemsPer,
		free:     make([]int, entries),
		freeLen:  entries,
	}
	// One backing array holds every entry's elements; the capacity bound
	// keeps an entry's appends out of its neighbour's.
	elems := make([]int32, entries*elemsPer)
	for i := 0; i < entries; i++ {
		la.entries[i].elems = elems[i*elemsPer : i*elemsPer : (i+1)*elemsPer]
		la.free[i] = i
	}
	return la
}

// freeEntries returns how many entries are currently unallocated.
func (la *listArray) freeEntries() int { return la.freeLen }

// canAppend conservatively reports whether count elements could be appended
// to a list whose current length is curLen: in the worst case every new
// element needs a fresh entry, but at least the slack in the tail entry is
// free.
func (la *listArray) canAppend(curLen, count int) bool {
	slack := 0
	if curLen%la.elemsPer != 0 || curLen == 0 {
		slack = la.elemsPer - curLen%la.elemsPer
		if curLen == 0 {
			slack = la.elemsPer
		}
	}
	need := count - slack
	if need <= 0 {
		return true
	}
	entriesNeeded := (need + la.elemsPer - 1) / la.elemsPer
	return la.freeLen >= entriesNeeded
}

// alloc reserves a fresh, empty entry and returns its index as the list
// handle. It fails when the array is exhausted.
func (la *listArray) alloc() (int, int, bool) {
	la.accesses++
	if la.freeLen == 0 {
		la.allocFailures++
		return noList, 1, false
	}
	idx := la.free[la.freeHead]
	la.freeHead++
	if la.freeHead == len(la.free) {
		la.freeHead = 0
	}
	la.freeLen--
	e := &la.entries[idx]
	e.used = true
	e.elems = e.elems[:0]
	e.next = idx
	la.inUse++
	if la.inUse > la.maxInUse {
		la.maxInUse = la.inUse
	}
	return idx, 1, true
}

// append adds value to the list rooted at head, walking to the tail entry and
// allocating a continuation entry if the tail is full. It returns the number
// of entry accesses performed.
func (la *listArray) append(head int, value int32) (int, bool) {
	if head == noList {
		panic(fmt.Sprintf("dmu: %s: append to unallocated list", la.name))
	}
	accesses := 0
	idx := head
	for {
		accesses++
		la.accesses++
		e := &la.entries[idx]
		if !e.used {
			panic(fmt.Sprintf("dmu: %s: append walked into a free entry %d", la.name, idx))
		}
		if len(e.elems) < la.elemsPer {
			e.elems = append(e.elems, value)
			return accesses, true
		}
		if e.next != idx {
			idx = e.next
			continue
		}
		// Tail entry is full: allocate a continuation.
		cont, a, ok := la.alloc()
		accesses += a
		if !ok {
			return accesses, false
		}
		e = &la.entries[idx] // realloc-safe: entries never reallocates, but be explicit
		e.next = cont
		idx = cont
	}
}

// walk returns all values of the list rooted at head and the number of entry
// accesses performed. A noList head yields an empty result at zero cost.
func (la *listArray) walk(head int) ([]int32, int) {
	return la.walkAppend(head, nil)
}

// walkAppend is walk with a caller-provided destination buffer, so hot loops
// can reuse a scratch slice instead of allocating per walk. It appends the
// list's values to dst and returns the extended slice plus the entry accesses
// performed.
func (la *listArray) walkAppend(head int, dst []int32) ([]int32, int) {
	if head == noList {
		return dst, 0
	}
	accesses := 0
	idx := head
	for {
		accesses++
		la.accesses++
		e := &la.entries[idx]
		dst = append(dst, e.elems...)
		if e.next == idx {
			return dst, accesses
		}
		idx = e.next
	}
}

// length returns the number of elements in the list without charging
// simulated accesses (used by pre-checks).
func (la *listArray) length(head int) int {
	if head == noList {
		return 0
	}
	n := 0
	idx := head
	for {
		e := &la.entries[idx]
		n += len(e.elems)
		if e.next == idx {
			return n
		}
		idx = e.next
	}
}

// removeValue removes the first occurrence of value from the list, compacting
// the entry that held it. It returns the accesses performed and whether the
// value was found.
func (la *listArray) removeValue(head int, value int32) (int, bool) {
	if head == noList {
		return 0, false
	}
	accesses := 0
	idx := head
	for {
		accesses++
		la.accesses++
		e := &la.entries[idx]
		for i, v := range e.elems {
			if v == value {
				e.elems = append(e.elems[:i], e.elems[i+1:]...)
				return accesses, true
			}
		}
		if e.next == idx {
			return accesses, false
		}
		idx = e.next
	}
}

// flush empties the list but keeps the head entry allocated (Algorithm 1
// flushes the reader list of a dependence when a new writer arrives).
// Continuation entries are returned to the free pool.
func (la *listArray) flush(head int) int {
	if head == noList {
		return 0
	}
	accesses := 1
	la.accesses++
	h := &la.entries[head]
	next := h.next
	h.elems = h.elems[:0]
	h.next = head
	idx := next
	for idx != head {
		accesses++
		la.accesses++
		e := &la.entries[idx]
		n := e.next
		la.release(idx)
		if n == idx {
			break
		}
		idx = n
	}
	return accesses
}

// freeList releases every entry of the list rooted at head, returning the
// accesses performed.
func (la *listArray) freeList(head int) int {
	if head == noList {
		return 0
	}
	accesses := 0
	idx := head
	for {
		accesses++
		la.accesses++
		e := &la.entries[idx]
		next := e.next
		la.release(idx)
		if next == idx {
			return accesses
		}
		idx = next
	}
}

func (la *listArray) release(idx int) {
	e := &la.entries[idx]
	if !e.used {
		panic(fmt.Sprintf("dmu: %s: double free of entry %d", la.name, idx))
	}
	e.used = false
	e.elems = e.elems[:0]
	e.next = idx
	tail := la.freeHead + la.freeLen
	if tail >= len(la.free) {
		tail -= len(la.free)
	}
	la.free[tail] = idx
	la.freeLen++
	la.inUse--
}

package dmu

import (
	"fmt"
	"math/bits"
)

// noID marks an invalid internal ID.
const noID = -1

// aliasEntry is one way of one set of an alias table.
type aliasEntry struct {
	valid bool
	addr  uint64
	id    int
}

// aliasTable is a set-associative directory that maps 64-bit addresses (task
// descriptor addresses in the TAT, dependence addresses in the DAT) to small
// internal IDs, plus a queue of free IDs (Section III-B1).
type aliasTable struct {
	name    string
	sets    [][]aliasEntry
	numSets int
	assoc   int
	policy  IndexPolicy
	byID    []setWay // reverse map: ID -> location, for O(1) eviction

	// freeIDs is a FIFO ring of free IDs: IDs are handed out in release
	// order starting from 0..entries-1, mirroring a hardware free-list
	// initialised in order. A ring avoids the slice-drift reallocation a
	// naive queue would pay on every simulated task.
	freeIDs  []int
	freeHead int
	freeLen  int

	// setLive[i] counts valid entries in set i, and liveSets counts sets
	// with at least one valid entry, so occupancy statistics are O(1)
	// instead of a full-table scan on every insert.
	setLive  []int
	liveSets int

	// Statistics.
	lookups        uint64
	inserts        uint64
	removes        uint64
	setConflicts   uint64 // insert failed because the set was full
	idExhaustions  uint64 // insert failed because no free ID remained
	occupied       int
	maxOccupied    int
	occupiedSample uint64 // sum of occupied-set counts, for averages
	sampleCount    uint64
}

// setWay locates an entry inside the table.
type setWay struct {
	set, way int
	valid    bool
}

func newAliasTable(name string, entries, assoc int, policy IndexPolicy) *aliasTable {
	numSets := entries / assoc
	t := &aliasTable{
		name:    name,
		numSets: numSets,
		assoc:   assoc,
		policy:  policy,
		sets:    make([][]aliasEntry, numSets),
		byID:    make([]setWay, entries),
		freeIDs: make([]int, entries),
		freeLen: entries,
		setLive: make([]int, numSets),
	}
	ways := make([]aliasEntry, numSets*assoc)
	for i := range t.sets {
		t.sets[i] = ways[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	// IDs are handed out lowest-first so direct-mapped tables indexed by ID
	// stay dense.
	for id := 0; id < entries; id++ {
		t.freeIDs[id] = id
	}
	return t
}

// popFreeID removes and returns the oldest free ID. The caller must check
// freeLen > 0.
func (t *aliasTable) popFreeID() int {
	id := t.freeIDs[t.freeHead]
	t.freeHead++
	if t.freeHead == len(t.freeIDs) {
		t.freeHead = 0
	}
	t.freeLen--
	return id
}

// pushFreeID returns an ID to the tail of the free queue.
func (t *aliasTable) pushFreeID(id int) {
	tail := t.freeHead + t.freeLen
	if tail >= len(t.freeIDs) {
		tail -= len(t.freeIDs)
	}
	t.freeIDs[tail] = id
	t.freeLen++
}

// index computes the set index for an address. For the dynamic policy the
// index bits start at log2(size), so dependences that name different blocks
// of the same data structure spread across sets even when their low address
// bits coincide (Section III-B1).
func (t *aliasTable) index(addr, size uint64) int {
	var start uint
	if t.policy.Dynamic {
		if size > 1 {
			start = uint(bits.Len64(size - 1)) // ceil(log2(size))
		}
	} else {
		start = t.policy.StaticBit
	}
	return int((addr >> start) % uint64(t.numSets))
}

// lookup returns the internal ID mapped to addr, if present.
func (t *aliasTable) lookup(addr, size uint64) (int, bool) {
	t.lookups++
	set := t.sets[t.index(addr, size)]
	for w := range set {
		if set[w].valid && set[w].addr == addr {
			return set[w].id, true
		}
	}
	return noID, false
}

// canInsert reports whether an insert of addr would succeed: the set has a
// free way and a free ID remains.
func (t *aliasTable) canInsert(addr, size uint64) bool {
	if t.freeLen == 0 {
		return false
	}
	si := t.index(addr, size)
	return t.setLive[si] < t.assoc
}

// insert maps addr to a freshly allocated ID. It fails (returning false) when
// the target set is full or no free ID remains; the caller is expected to
// stall until an in-flight task frees an entry.
func (t *aliasTable) insert(addr, size uint64) (int, bool) {
	t.inserts++
	if t.freeLen == 0 {
		t.idExhaustions++
		return noID, false
	}
	si := t.index(addr, size)
	set := t.sets[si]
	for w := range set {
		if !set[w].valid {
			id := t.popFreeID()
			set[w] = aliasEntry{valid: true, addr: addr, id: id}
			t.byID[id] = setWay{set: si, way: w, valid: true}
			t.occupied++
			if t.occupied > t.maxOccupied {
				t.maxOccupied = t.occupied
			}
			if t.setLive[si] == 0 {
				t.liveSets++
			}
			t.setLive[si]++
			t.sampleOccupancy()
			return id, true
		}
	}
	t.setConflicts++
	return noID, false
}

// removeByID invalidates the entry that holds id and returns the ID to the
// free queue.
func (t *aliasTable) removeByID(id int) error {
	loc := t.byID[id]
	if !loc.valid {
		return fmt.Errorf("dmu: %s: remove of unmapped ID %d", t.name, id)
	}
	t.removes++
	t.sets[loc.set][loc.way].valid = false
	t.byID[id] = setWay{}
	t.pushFreeID(id)
	t.occupied--
	t.setLive[loc.set]--
	if t.setLive[loc.set] == 0 {
		t.liveSets--
	}
	return nil
}

// occupiedEntries returns the number of valid entries.
func (t *aliasTable) occupiedEntries() int { return t.occupied }

// occupiedSets returns the number of sets with at least one valid entry
// (Figure 11's metric).
func (t *aliasTable) occupiedSets() int { return t.liveSets }

// sampleOccupancy accumulates the occupied-set count so that averages over
// the execution can be reported.
func (t *aliasTable) sampleOccupancy() {
	t.occupiedSample += uint64(t.liveSets)
	t.sampleCount++
}

// avgOccupiedSets returns the average number of occupied sets over all
// sampled insertions.
func (t *aliasTable) avgOccupiedSets() float64 {
	if t.sampleCount == 0 {
		return 0
	}
	return float64(t.occupiedSample) / float64(t.sampleCount)
}

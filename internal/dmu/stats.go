package dmu

// Stats aggregates operation counts and high-water marks of a DMU instance.
// Simulations read it after a run to report hardware activity (used by the
// power model) and occupancy (used by the design-space-exploration
// experiments).
type Stats struct {
	// Operation counts.
	CreateOps   uint64
	AddDepOps   uint64
	SubmitOps   uint64
	FinishOps   uint64
	GetReadyOps uint64

	// Capacity stalls observed by the operations themselves (a well-behaved
	// runtime pre-checks and these stay zero).
	CreateStalls uint64
	AddDepStalls uint64

	// Lifecycle counters.
	TasksCreated   uint64
	TasksRetired   uint64
	DepsTracked    uint64
	DepsRetired    uint64
	EdgesCreated   uint64
	ReadyProduced  uint64
	ReadyDelivered uint64

	// High-water marks.
	MaxInFlightTasks int
	MaxInFlightDeps  int
}

// Stats returns a copy of the DMU's counters.
func (d *DMU) Stats() Stats { return d.stats }

// StructureStats describes the activity and occupancy of one internal
// structure, for reporting and for the energy model.
type StructureStats struct {
	Name        string
	Accesses    uint64
	InUse       int
	MaxInUse    int
	FreeEntries int
}

// AliasStats describes an alias table (TAT or DAT).
type AliasStats struct {
	Name            string
	Lookups         uint64
	Inserts         uint64
	Removes         uint64
	SetConflicts    uint64
	IDExhaustions   uint64
	Occupied        int
	MaxOccupied     int
	OccupiedSets    int
	AvgOccupiedSets float64
	NumSets         int
	Assoc           int
}

// Snapshot is a full picture of the DMU's internal state and activity.
type Snapshot struct {
	Ops         Stats
	TAT         AliasStats
	DAT         AliasStats
	ListArrays  []StructureStats
	ReadyLen    int
	ReadyMaxLen int
	// TotalAccesses sums accesses across all structures; the energy model
	// multiplies it by a per-access energy.
	TotalAccesses uint64
}

// Snapshot captures the current state of every structure.
func (d *DMU) Snapshot() Snapshot {
	alias := func(t *aliasTable) AliasStats {
		return AliasStats{
			Name:            t.name,
			Lookups:         t.lookups,
			Inserts:         t.inserts,
			Removes:         t.removes,
			SetConflicts:    t.setConflicts,
			IDExhaustions:   t.idExhaustions,
			Occupied:        t.occupiedEntries(),
			MaxOccupied:     t.maxOccupied,
			OccupiedSets:    t.occupiedSets(),
			AvgOccupiedSets: t.avgOccupiedSets(),
			NumSets:         t.numSets,
			Assoc:           t.assoc,
		}
	}
	list := func(la *listArray) StructureStats {
		return StructureStats{
			Name:        la.name,
			Accesses:    la.accesses,
			InUse:       la.inUse,
			MaxInUse:    la.maxInUse,
			FreeEntries: la.freeEntries(),
		}
	}
	s := Snapshot{
		Ops:         d.stats,
		TAT:         alias(d.tat),
		DAT:         alias(d.dat),
		ListArrays:  []StructureStats{list(d.sla), list(d.dla), list(d.rla)},
		ReadyLen:    d.ready.len(),
		ReadyMaxLen: d.ready.maxLen,
	}
	s.TotalAccesses = d.tat.lookups + d.tat.inserts + d.tat.removes +
		d.dat.lookups + d.dat.inserts + d.dat.removes +
		d.sla.accesses + d.dla.accesses + d.rla.accesses
	return s
}

// Quiescent reports whether the DMU holds no in-flight state: no tasks, no
// dependences, no allocated list entries, and an empty Ready Queue. After a
// complete, balanced create/finish stream the DMU must be quiescent; tests
// use this to detect leaks in Algorithm 2's cleanup.
func (d *DMU) Quiescent() bool {
	return d.tat.occupiedEntries() == 0 &&
		d.dat.occupiedEntries() == 0 &&
		d.sla.inUse == 0 &&
		d.dla.inUse == 0 &&
		d.rla.inUse == 0 &&
		d.ready.len() == 0
}

// DATAvgOccupiedSets exposes the DAT's average occupied-set count sampled at
// every dependence insertion (Figure 11).
func (d *DMU) DATAvgOccupiedSets() float64 { return d.dat.avgOccupiedSets() }

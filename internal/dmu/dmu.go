package dmu

import (
	"errors"
	"fmt"

	"repro/internal/fifo"
	"repro/internal/task"
)

// Errors returned by DMU operations. ErrNoSpace indicates that a structure is
// full; callers are expected to use the Can* pre-checks and stall until an
// in-flight task finishes, as Section III-D prescribes.
var (
	ErrNoSpace     = errors.New("dmu: structure full")
	ErrUnknownTask = errors.New("dmu: unknown task descriptor")
	ErrTaskExists  = errors.New("dmu: task descriptor already in flight")
)

// taskEntry is one row of the Task Table (Figure 4): the task descriptor
// address, predecessor and successor counts, and pointers into the successor
// and dependence list arrays.
type taskEntry struct {
	valid    bool
	descAddr uint64
	numPred  int
	numSucc  int
	succList int
	depList  int
	// submitted becomes true once the runtime has finished declaring the
	// task's dependences (SubmitTask). Only submitted tasks may enter the
	// Ready Queue; without this gate a task whose early predecessors all
	// finish while later add_dependence instructions are still in flight
	// could be scheduled prematurely.
	submitted bool
}

// depEntry is one row of the Dependence Table: the last writer task ID (with
// a valid bit) and a pointer into the reader list array.
type depEntry struct {
	valid           bool
	addr            uint64
	size            uint64
	lastWriter      int32
	lastWriterValid bool
	readerList      int
}

// ReadyTask is what get_ready_task returns to the runtime: the task
// descriptor address and the task's number of successors.
type ReadyTask struct {
	DescAddr uint64
	NumSuccs int
}

// OpResult reports the cost of one DMU operation.
type OpResult struct {
	// Accesses is the number of structure accesses the operation performed.
	Accesses int
	// Cycles is Accesses multiplied by the configured access latency. The
	// simulation charges this latency to the issuing thread (TDM
	// instructions have barrier semantics) and to the DMU port.
	Cycles int64
	// Ready is the number of tasks that became ready during the operation
	// (only finish_task produces ready tasks).
	Ready int
}

func (d *DMU) result(accesses, ready int) OpResult {
	return OpResult{
		Accesses: accesses,
		Cycles:   int64(accesses) * int64(d.cfg.AccessLatency),
		Ready:    ready,
	}
}

// DMU is the Dependence Management Unit.
type DMU struct {
	cfg Config

	tat *aliasTable
	dat *aliasTable

	taskTable []taskEntry
	depTable  []depEntry

	sla *listArray // successor lists (task IDs)
	dla *listArray // dependence lists (dependence IDs)
	rla *listArray // reader lists (task IDs)

	ready *readyQueue

	// Scratch buffers reused by the hot operations (AddDependence walks a
	// reader list, FinishTask walks the successor and dependence lists) so
	// steady-state protocol traffic performs no allocation. Distinct
	// buffers because successor and dependence results overlap in
	// FinishTask.
	readerScratch []int32
	succScratch   []int32
	depScratch    []int32

	stats Stats
}

// New builds a DMU with the given configuration. It panics on an invalid
// configuration; use Config.Validate to check configurations from user input.
func New(cfg Config) *DMU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &DMU{
		cfg:       cfg,
		tat:       newAliasTable("TAT", cfg.TATEntries, cfg.TATAssoc, StaticIndex(cfg.TATIndexBit)),
		dat:       newAliasTable("DAT", cfg.DATEntries, cfg.DATAssoc, cfg.DATIndex),
		taskTable: make([]taskEntry, cfg.TATEntries),
		depTable:  make([]depEntry, cfg.DATEntries),
		sla:       newListArray("SLA", cfg.SLAEntries, cfg.ListElems),
		dla:       newListArray("DLA", cfg.DLAEntries, cfg.ListElems),
		rla:       newListArray("RLA", cfg.RLAEntries, cfg.ListElems),
		ready:     newReadyQueue(cfg.ReadyQueueEntries),
	}
}

// Config returns the configuration the DMU was built with.
func (d *DMU) Config() Config { return d.cfg }

// InFlightTasks returns the number of tasks currently tracked.
func (d *DMU) InFlightTasks() int { return d.tat.occupiedEntries() }

// InFlightDeps returns the number of dependences currently tracked.
func (d *DMU) InFlightDeps() int { return d.dat.occupiedEntries() }

// ReadyCount returns the number of tasks waiting in the Ready Queue.
func (d *DMU) ReadyCount() int { return d.ready.len() }

// CanCreateTask reports whether a create_task for descriptor desc could be
// accepted right now: the TAT set has room, a task ID is free, and the SLA
// and DLA can provide one fresh list each.
func (d *DMU) CanCreateTask(desc uint64) bool {
	return d.tat.canInsert(desc, 0) &&
		d.sla.freeEntries() >= 1 &&
		d.dla.freeEntries() >= 1
}

// CreateTask registers a new in-flight task identified by its task descriptor
// address. The Task Table entry is initialised with zero predecessor and
// successor counts and fresh successor and dependence lists.
func (d *DMU) CreateTask(desc uint64) (OpResult, error) {
	d.stats.CreateOps++
	if _, ok := d.tat.lookup(desc, 0); ok {
		return d.result(1, 0), fmt.Errorf("%w: 0x%x", ErrTaskExists, desc)
	}
	accesses := 1 // TAT lookup above
	id, ok := d.tat.insert(desc, 0)
	accesses++
	if !ok {
		d.stats.CreateStalls++
		return d.result(accesses, 0), fmt.Errorf("%w: TAT", ErrNoSpace)
	}
	succ, a, ok := d.sla.alloc()
	accesses += a
	if !ok {
		_ = d.tat.removeByID(id)
		d.stats.CreateStalls++
		return d.result(accesses, 0), fmt.Errorf("%w: SLA", ErrNoSpace)
	}
	deps, a, ok := d.dla.alloc()
	accesses += a
	if !ok {
		d.sla.freeList(succ)
		_ = d.tat.removeByID(id)
		d.stats.CreateStalls++
		return d.result(accesses, 0), fmt.Errorf("%w: DLA", ErrNoSpace)
	}
	d.taskTable[id] = taskEntry{
		valid:    true,
		descAddr: desc,
		succList: succ,
		depList:  deps,
	}
	accesses++ // Task Table write
	d.stats.TasksCreated++
	if inFlight := d.tat.occupiedEntries(); inFlight > d.stats.MaxInFlightTasks {
		d.stats.MaxInFlightTasks = inFlight
	}
	return d.result(accesses, 0), nil
}

// CanAddDependence conservatively reports whether add_dependence would find
// room in every structure it may touch. The worst case allocates one DAT
// entry, one reader list, extends the task's dependence list by one element,
// extends one successor list per current reader plus the last writer, and
// extends the task's own reader registration.
func (d *DMU) CanAddDependence(desc, addr, size uint64, dir task.Dir) bool {
	taskID, ok := d.tat.lookup(desc, 0)
	if !ok {
		// Unknown task: the operation will fail outright, so do not
		// report a capacity stall.
		return true
	}
	depID, present := d.dat.lookup(addr, size)
	if !present {
		if !d.dat.canInsert(addr, size) || d.rla.freeEntries() < 1 {
			return false
		}
	}
	// Dependence list of the task grows by one.
	if !d.dla.canAppend(d.dla.length(d.taskTable[taskID].depList), 1) {
		return false
	}
	// Successor-list growth: last writer's list plus, for an output
	// dependence, every reader's list. Conservatively require one free SLA
	// entry per potential append plus one for safety.
	appends := 1
	readers := 0
	if present {
		readers = d.rla.length(d.depTable[depID].readerList)
	}
	if dir.IsWrite() {
		appends += readers
	}
	if d.sla.freeEntries() < appends {
		return false
	}
	// Reader list of the dependence may grow by one for an input.
	if dir.IsRead() && present {
		if !d.rla.canAppend(readers, 1) {
			return false
		}
	}
	return true
}

// AddDependence informs the DMU of one dependence of an in-flight task,
// implementing Algorithm 1. dir follows OpenMP semantics: In registers the
// task as a reader; Out and InOut make the task wait for the previous readers
// and writer and install it as the new last writer.
func (d *DMU) AddDependence(desc, addr, size uint64, dir task.Dir) (OpResult, error) {
	d.stats.AddDepOps++
	taskID, ok := d.tat.lookup(desc, 0)
	accesses := 1
	if !ok {
		return d.result(accesses, 0), fmt.Errorf("%w: 0x%x", ErrUnknownTask, desc)
	}
	depID, ok := d.dat.lookup(addr, size)
	accesses++
	if !ok {
		depID, ok = d.dat.insert(addr, size)
		accesses++
		if !ok {
			d.stats.AddDepStalls++
			return d.result(accesses, 0), fmt.Errorf("%w: DAT", ErrNoSpace)
		}
		readerList, a, okAlloc := d.rla.alloc()
		accesses += a
		if !okAlloc {
			_ = d.dat.removeByID(depID)
			d.stats.AddDepStalls++
			return d.result(accesses, 0), fmt.Errorf("%w: RLA", ErrNoSpace)
		}
		d.depTable[depID] = depEntry{
			valid:      true,
			addr:       addr,
			size:       size,
			lastWriter: noID,
			readerList: readerList,
		}
		accesses++ // Dependence Table write
		d.stats.DepsTracked++
		if inFlight := d.dat.occupiedEntries(); inFlight > d.stats.MaxInFlightDeps {
			d.stats.MaxInFlightDeps = inFlight
		}
	}
	te := &d.taskTable[taskID]
	de := &d.depTable[depID]

	// Insert depID in the dependence list of the task.
	a, ok := d.dla.append(te.depList, int32(depID))
	accesses += a
	if !ok {
		d.stats.AddDepStalls++
		return d.result(accesses, 0), fmt.Errorf("%w: DLA", ErrNoSpace)
	}

	// If the dependence has a valid last writer, the new task becomes its
	// successor (RAW or WAW).
	if de.lastWriterValid && int(de.lastWriter) != taskID {
		writer := &d.taskTable[de.lastWriter]
		a, ok := d.sla.append(writer.succList, int32(taskID))
		accesses += a
		if !ok {
			d.stats.AddDepStalls++
			return d.result(accesses, 0), fmt.Errorf("%w: SLA", ErrNoSpace)
		}
		writer.numSucc++
		te.numPred++
		accesses += 2 // Task Table updates for both tasks
		d.stats.EdgesCreated++
	}

	if dir.IsRead() {
		// Input: register the task as a reader of the dependence.
		a, ok := d.rla.append(de.readerList, int32(taskID))
		accesses += a
		if !ok {
			d.stats.AddDepStalls++
			return d.result(accesses, 0), fmt.Errorf("%w: RLA", ErrNoSpace)
		}
		return d.result(accesses, 0), nil
	}

	// Output (or inout): the task must wait for all readers of the
	// dependence (WAR); afterwards the reader list is flushed and the task
	// becomes the last writer.
	readers, a := d.rla.walkAppend(de.readerList, d.readerScratch[:0])
	d.readerScratch = readers
	accesses += a
	for _, r := range readers {
		if int(r) == taskID {
			continue
		}
		reader := &d.taskTable[r]
		a, ok := d.sla.append(reader.succList, int32(taskID))
		accesses += a
		if !ok {
			d.stats.AddDepStalls++
			return d.result(accesses, 0), fmt.Errorf("%w: SLA", ErrNoSpace)
		}
		reader.numSucc++
		te.numPred++
		accesses += 2
		d.stats.EdgesCreated++
	}
	accesses += d.rla.flush(de.readerList)
	de.lastWriter = int32(taskID)
	de.lastWriterValid = true
	accesses++ // Dependence Table write
	return d.result(accesses, 0), nil
}

// FinishTask notifies the DMU that the task identified by desc finished,
// implementing Algorithm 2: successors lose one predecessor (and enter the
// Ready Queue at zero), the task is removed from the reader list and last
// writer field of each of its dependences, dependences with no remaining
// state are freed, and finally the task's own entries are released.
func (d *DMU) FinishTask(desc uint64) (OpResult, error) {
	d.stats.FinishOps++
	taskID, ok := d.tat.lookup(desc, 0)
	accesses := 1
	if !ok {
		return d.result(accesses, 0), fmt.Errorf("%w: 0x%x", ErrUnknownTask, desc)
	}
	te := &d.taskTable[taskID]
	ready := 0

	// Wake successors.
	succs, a := d.sla.walkAppend(te.succList, d.succScratch[:0])
	d.succScratch = succs
	accesses += a
	for _, s := range succs {
		succ := &d.taskTable[s]
		succ.numPred--
		accesses++ // Task Table update
		if succ.numPred == 0 && succ.submitted {
			if !d.ready.push(int32(s)) {
				// The Ready Queue is sized to the Task Table in
				// every sane configuration, so overflow means a
				// configuration error rather than a transient.
				return d.result(accesses, ready), fmt.Errorf("%w: ReadyQueue", ErrNoSpace)
			}
			accesses++
			ready++
		}
	}

	// Detach from dependences.
	deps, a := d.dla.walkAppend(te.depList, d.depScratch[:0])
	d.depScratch = deps
	accesses += a
	for _, depID := range deps {
		de := &d.depTable[depID]
		if !de.valid {
			// The dependence was already freed through an earlier
			// duplicate annotation of this same task.
			continue
		}
		a, _ := d.rla.removeValue(de.readerList, int32(taskID))
		accesses += a
		if de.lastWriterValid && int(de.lastWriter) == taskID {
			de.lastWriterValid = false
			accesses++
		}
		if !de.lastWriterValid && d.rla.length(de.readerList) == 0 {
			accesses += d.rla.freeList(de.readerList)
			if err := d.dat.removeByID(int(depID)); err != nil {
				return d.result(accesses, ready), err
			}
			de.valid = false
			accesses++
			d.stats.DepsRetired++
		}
	}

	// Free the task's own state.
	accesses += d.sla.freeList(te.succList)
	accesses += d.dla.freeList(te.depList)
	if err := d.tat.removeByID(taskID); err != nil {
		return d.result(accesses, ready), err
	}
	te.valid = false
	accesses++
	d.stats.TasksRetired++
	d.stats.ReadyProduced += uint64(ready)
	return d.result(accesses, ready), nil
}

// GetReadyTask pops the oldest ready task from the Ready Queue and returns
// its descriptor address and successor count. ok is false when the queue is
// empty, in which case the runtime receives a null pointer (Section III-C3).
func (d *DMU) GetReadyTask() (ReadyTask, OpResult, bool) {
	d.stats.GetReadyOps++
	id, ok := d.ready.pop()
	if !ok {
		return ReadyTask{}, d.result(1, 0), false
	}
	te := &d.taskTable[id]
	d.stats.ReadyDelivered++
	return ReadyTask{DescAddr: te.descAddr, NumSuccs: te.numSucc}, d.result(2, 0), true
}

// SubmitTask marks the end of the task-creation phase for desc: the runtime
// has declared every dependence of the task. If the task has no unresolved
// predecessors it enters the Ready Queue immediately; otherwise it will enter
// when its last predecessor finishes. This closes the window in which a
// partially declared task could otherwise be woken prematurely; the paper
// leaves this corner implicit and this repository documents it in DESIGN.md.
func (d *DMU) SubmitTask(desc uint64) (OpResult, error) {
	d.stats.SubmitOps++
	id, ok := d.tat.lookup(desc, 0)
	accesses := 1
	if !ok {
		return d.result(accesses, 0), fmt.Errorf("%w: 0x%x", ErrUnknownTask, desc)
	}
	te := &d.taskTable[id]
	te.submitted = true
	accesses++
	if te.numPred == 0 {
		if !d.ready.push(int32(id)) {
			return d.result(accesses, 0), fmt.Errorf("%w: ReadyQueue", ErrNoSpace)
		}
		accesses++
		d.stats.ReadyProduced++
		return d.result(accesses, 1), nil
	}
	return d.result(accesses, 0), nil
}

// PredecessorCount returns the current predecessor count of an in-flight
// task. It is a diagnostic accessor used by tests and by cmd/dmuprobe; the
// runtime protocol itself only uses the four ISA operations plus SubmitTask.
func (d *DMU) PredecessorCount(desc uint64) (int, OpResult, error) {
	id, ok := d.tat.lookup(desc, 0)
	if !ok {
		return 0, d.result(1, 0), fmt.Errorf("%w: 0x%x", ErrUnknownTask, desc)
	}
	return d.taskTable[id].numPred, d.result(2, 0), nil
}

// SuccessorCount returns the current successor count of an in-flight task.
func (d *DMU) SuccessorCount(desc uint64) (int, OpResult, error) {
	id, ok := d.tat.lookup(desc, 0)
	if !ok {
		return 0, d.result(1, 0), fmt.Errorf("%w: 0x%x", ErrUnknownTask, desc)
	}
	return d.taskTable[id].numSucc, d.result(2, 0), nil
}

// readyQueue is the FIFO of ready task IDs, bounded by the configured
// capacity.
type readyQueue struct {
	ids      fifo.Queue[int32]
	capacity int
	maxLen   int
}

func newReadyQueue(capacity int) *readyQueue {
	return &readyQueue{capacity: capacity}
}

func (q *readyQueue) push(id int32) bool {
	if q.ids.Len() >= q.capacity {
		return false
	}
	q.ids.Push(id)
	q.maxLen = max(q.maxLen, q.ids.Len())
	return true
}

func (q *readyQueue) pop() (int32, bool) {
	if q.ids.Len() == 0 {
		return 0, false
	}
	return q.ids.Pop(), true
}

func (q *readyQueue) len() int { return q.ids.Len() }

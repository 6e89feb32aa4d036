package swdep

import (
	"testing"
	"testing/quick"

	"repro/internal/task"
)

func spec(id task.ID, deps ...task.Dep) *task.Spec {
	return &task.Spec{ID: id, Kernel: "k", Duration: 100, Deps: deps}
}

func in(addr uint64) task.Dep    { return task.Dep{Addr: addr, Size: 64, Dir: task.In} }
func out(addr uint64) task.Dep   { return task.Dep{Addr: addr, Size: 64, Dir: task.Out} }
func inout(addr uint64) task.Dep { return task.Dep{Addr: addr, Size: 64, Dir: task.InOut} }

func TestIndependentTaskImmediatelyReady(t *testing.T) {
	tr := NewTracker()
	res, err := tr.CreateTask(spec(0, out(0x100)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ready || res.EdgesInserted != 0 || res.DepsMatched != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestDuplicateCreateFails(t *testing.T) {
	tr := NewTracker()
	tr.CreateTask(spec(0))
	if _, err := tr.CreateTask(spec(0)); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestFinishUnknownOrTwiceFails(t *testing.T) {
	tr := NewTracker()
	if _, err := tr.FinishTask(7, nil); err == nil {
		t.Fatal("finish of unknown task accepted")
	}
	tr.CreateTask(spec(0))
	if _, err := tr.FinishTask(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.FinishTask(0, nil); err == nil {
		t.Fatal("double finish accepted")
	}
}

func TestRAWChain(t *testing.T) {
	tr := NewTracker()
	r0, _ := tr.CreateTask(spec(0, inout(0xA)))
	r1, _ := tr.CreateTask(spec(1, inout(0xA)))
	r2, _ := tr.CreateTask(spec(2, inout(0xA)))
	if !r0.Ready || r1.Ready || r2.Ready {
		t.Fatalf("readiness wrong: %v %v %v", r0.Ready, r1.Ready, r2.Ready)
	}
	// The wake list lands in the caller's buffer, which the next finish
	// may reuse.
	buf := make([]Woken, 0, 4)
	f0, _ := tr.FinishTask(0, buf)
	if len(f0.NewlyReady) != 1 || f0.NewlyReady[0].ID != 1 || &f0.NewlyReady[0] != &buf[:1][0] {
		t.Fatalf("finish(0) woke %v, want [1] in the caller's buffer", f0.NewlyReady)
	}
	f1, _ := tr.FinishTask(1, f0.NewlyReady)
	if len(f1.NewlyReady) != 1 || f1.NewlyReady[0].ID != 2 || &f1.NewlyReady[0] != &buf[:1][0] {
		t.Fatalf("finish(1) woke %v, want [2] in the caller's buffer", f1.NewlyReady)
	}
	tr.FinishTask(2, nil)
	if !tr.Quiescent() {
		t.Fatal("tracker not quiescent after chain")
	}
}

func TestWARAndReaders(t *testing.T) {
	tr := NewTracker()
	tr.CreateTask(spec(0, out(0xB)))
	tr.CreateTask(spec(1, in(0xB)))
	tr.CreateTask(spec(2, in(0xB)))
	w, _ := tr.CreateTask(spec(3, out(0xB)))
	if w.Ready {
		t.Fatal("writer ready before readers finished")
	}
	if w.EdgesInserted != 3 {
		t.Fatalf("writer edges = %d, want 3 (WAW + 2x WAR)", w.EdgesInserted)
	}
	tr.FinishTask(0, nil)
	f1, _ := tr.FinishTask(1, nil)
	if len(f1.NewlyReady) != 0 {
		t.Fatal("writer woke too early")
	}
	f2, _ := tr.FinishTask(2, nil)
	if len(f2.NewlyReady) != 1 || f2.NewlyReady[0].ID != 3 {
		t.Fatalf("writer not woken by last reader: %v", f2.NewlyReady)
	}
}

func TestNumSuccsVisibleAtWake(t *testing.T) {
	tr := NewTracker()
	tr.CreateTask(spec(0, out(0xC)))
	tr.CreateTask(spec(1, in(0xC), out(0xD)))
	tr.CreateTask(spec(2, in(0xD)))
	// Task 1 has one successor (task 2) known before task 0 finishes.
	f, _ := tr.FinishTask(0, nil)
	if len(f.NewlyReady) != 1 || f.NewlyReady[0] != (Woken{ID: 1, NumSuccs: 1}) {
		t.Fatalf("NewlyReady = %v, want [{1 1}]", f.NewlyReady)
	}
	if tr.NumSuccs(1) != 1 {
		t.Fatalf("NumSuccs(1) = %d", tr.NumSuccs(1))
	}
	if tr.NumSuccs(99) != 0 {
		t.Fatal("NumSuccs of unknown task not zero")
	}
}

func TestRetiredProducerCreatesNoEdge(t *testing.T) {
	tr := NewTracker()
	tr.CreateTask(spec(0, out(0xE)))
	tr.FinishTask(0, nil)
	res, _ := tr.CreateTask(spec(1, in(0xE)))
	if !res.Ready || res.EdgesInserted != 0 {
		t.Fatalf("consumer of retired producer should be ready with no edges: %+v", res)
	}
	if tr.TrackedDeps() == 0 {
		t.Fatal("dependence record should exist while the reader is in flight")
	}
	tr.FinishTask(1, nil)
	if !tr.Quiescent() {
		t.Fatal("tracker leaked dependence records")
	}
}

func TestFinishResultCounts(t *testing.T) {
	tr := NewTracker()
	tr.CreateTask(spec(0, out(0x1), out(0x2)))
	tr.CreateTask(spec(1, in(0x1)))
	tr.CreateTask(spec(2, in(0x2)))
	f, _ := tr.FinishTask(0, nil)
	if f.SuccessorsWoken != 2 || len(f.NewlyReady) != 2 || f.DepsReleased != 2 {
		t.Fatalf("finish result = %+v", f)
	}
}

// Property: driving any random creation-order program through the tracker and
// executing tasks as they become ready yields an order that respects the
// golden graph, retires every task, and leaves the tracker quiescent.
func TestPropertyTrackerMatchesGoldenGraph(t *testing.T) {
	f := func(ops []uint16) bool {
		if len(ops) > 200 {
			ops = ops[:200]
		}
		b := task.NewBuilder("rand")
		b.Region(0)
		for _, op := range ops {
			addr := uint64(op%9)*64 + 0x1000
			d := b.Task("t", 10)
			switch op % 3 {
			case 0:
				d.In(addr, 64)
			case 1:
				d.Out(addr, 64)
			default:
				d.InOut(addr, 64)
			}
			d.Add()
		}
		p := b.Build()
		g := task.BuildProgramGraph(p)
		v := task.NewOrderValidator(g)
		tr := NewTracker()
		var ready []task.ID
		var woken []Woken
		finish := func(id task.ID) bool {
			v.Start(id)
			v.Finish(id)
			fr, err := tr.FinishTask(id, woken)
			if err != nil {
				return false
			}
			for _, w := range fr.NewlyReady {
				ready = append(ready, w.ID)
			}
			woken = fr.NewlyReady
			return true
		}
		for _, s := range p.Tasks() {
			res, err := tr.CreateTask(s)
			if err != nil {
				return false
			}
			if res.Ready {
				ready = append(ready, s.ID)
			}
			// Drain one ready task between creations to interleave
			// execution with creation, like real workers do.
			if len(ready) > 3 {
				id := ready[0]
				ready = ready[1:]
				if !finish(id) {
					return false
				}
			}
		}
		for len(ready) > 0 {
			id := ready[0]
			ready = ready[1:]
			if !finish(id) {
				return false
			}
		}
		return v.Err() == nil && tr.Quiescent()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: for programs executed strictly after full creation (no overlap),
// the number of edges the tracker discovers equals the golden graph's.
func TestPropertyEdgeCountMatchesGolden(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) > 120 {
			ops = ops[:120]
		}
		b := task.NewBuilder("rand")
		b.Region(0)
		for _, op := range ops {
			addr := uint64(op%6)*64 + 0x2000
			d := b.Task("t", 10)
			if op%2 == 0 {
				d.InOut(addr, 64)
			} else {
				d.In(addr, 64)
			}
			d.Add()
		}
		p := b.Build()
		g := task.BuildProgramGraph(p)
		tr := NewTracker()
		for _, s := range p.Tasks() {
			if _, err := tr.CreateTask(s); err != nil {
				return false
			}
		}
		return tr.EdgesCreated() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

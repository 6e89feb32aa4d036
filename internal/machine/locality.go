package machine

import "repro/internal/task"

// LocalityConfig configures the per-core locality tracker.
type LocalityConfig struct {
	// BlocksPerCore is the number of recently touched dependence addresses
	// remembered per core (a proxy for the private cache footprint).
	BlocksPerCore int
	// MaxBonus is the maximum fraction of a task's duration saved when all
	// its dependences were last touched by the executing core.
	MaxBonus float64
}

// DefaultLocality returns the locality model used by the evaluation: a task
// that reuses data resident on its core runs up to 12% faster, which yields
// locality-scheduler gains of a few percent on memory-intensive benchmarks
// (the paper reports 4.2% for Cholesky).
func DefaultLocality() LocalityConfig {
	return LocalityConfig{BlocksPerCore: 96, MaxBonus: 0.12}
}

// LocalityTracker remembers, per core, the dependence addresses most recently
// touched by tasks executed there, and shortens the duration of tasks that
// reuse them. It gives locality-aware schedulers something to exploit without
// simulating a cache hierarchy.
type LocalityTracker struct {
	cfg   LocalityConfig
	cores []coreFootprint

	hits   uint64
	misses uint64
}

// noNode terminates a footprint's recency list.
const noNode = -1

// lruNode is one resident address in a core footprint, linked in recency
// order so eviction is O(1) instead of a full scan of the footprint. Links
// are indices into the footprint's nodes.
type lruNode struct {
	addr       uint64
	prev, next int32
}

type coreFootprint struct {
	blocks map[uint64]int32 // address -> index of its node
	// nodes holds at most BlocksPerCore entries; an evicted address's node
	// is reused for the new one, so a full footprint stops allocating.
	nodes []lruNode
	// head is the most recently touched address, tail the eviction victim.
	head, tail int32
}

// NewLocalityTracker creates a tracker for the given number of cores.
func NewLocalityTracker(cores int, cfg LocalityConfig) *LocalityTracker {
	t := &LocalityTracker{cfg: cfg, cores: make([]coreFootprint, cores)}
	for i := range t.cores {
		t.cores[i] = coreFootprint{blocks: make(map[uint64]int32), head: noNode, tail: noNode}
	}
	return t
}

// pushFront links the (unlinked) node i as the most recent entry.
func (fp *coreFootprint) pushFront(i int32) {
	n := &fp.nodes[i]
	n.prev = noNode
	n.next = fp.head
	if fp.head != noNode {
		fp.nodes[fp.head].prev = i
	}
	fp.head = i
	if fp.tail == noNode {
		fp.tail = i
	}
}

// moveToFront unlinks node i and makes it the most recent entry.
func (fp *coreFootprint) moveToFront(i int32) {
	if fp.head == i {
		return
	}
	// Unlink.
	n := &fp.nodes[i]
	if n.prev != noNode {
		fp.nodes[n.prev].next = n.next
	}
	if n.next != noNode {
		fp.nodes[n.next].prev = n.prev
	}
	if fp.tail == i {
		fp.tail = n.prev
	}
	fp.pushFront(i)
}

// AdjustedDuration returns the task's duration after applying the locality
// bonus for executing it on the given core: the base duration is reduced by
// MaxBonus scaled by the fraction of the task's dependences resident on the
// core.
func (t *LocalityTracker) AdjustedDuration(core int, spec *task.Spec) int64 {
	if t == nil || len(spec.Deps) == 0 || t.cfg.MaxBonus <= 0 {
		return spec.Duration
	}
	fp := &t.cores[core]
	hits := 0
	for _, d := range spec.Deps {
		if _, ok := fp.blocks[d.Addr]; ok {
			hits++
			t.hits++
		} else {
			t.misses++
		}
	}
	fraction := float64(hits) / float64(len(spec.Deps))
	saved := float64(spec.Duration) * t.cfg.MaxBonus * fraction
	d := spec.Duration - int64(saved)
	if d < 1 {
		d = 1
	}
	return d
}

// RecordExecution registers that the task ran on the core, inserting its
// dependence addresses into the core's footprint with LRU replacement.
func (t *LocalityTracker) RecordExecution(core int, spec *task.Spec) {
	if t == nil || t.cfg.BlocksPerCore <= 0 {
		return
	}
	fp := &t.cores[core]
	for _, d := range spec.Deps {
		t.touch(fp, d.Addr)
	}
}

func (t *LocalityTracker) touch(fp *coreFootprint, addr uint64) {
	if i, ok := fp.blocks[addr]; ok {
		fp.moveToFront(i)
		return
	}
	var i int32
	if len(fp.blocks) >= t.cfg.BlocksPerCore {
		// Evict the least recently used address and recycle its node.
		i = fp.tail
		fp.tail = fp.nodes[i].prev
		if fp.tail != noNode {
			fp.nodes[fp.tail].next = noNode
		} else {
			fp.head = noNode
		}
		delete(fp.blocks, fp.nodes[i].addr)
	} else {
		i = int32(len(fp.nodes))
		fp.nodes = append(fp.nodes, lruNode{})
	}
	fp.nodes[i].addr = addr
	fp.blocks[addr] = i
	fp.pushFront(i)
}

// HitRate returns the fraction of dependence lookups that hit a core
// footprint, for diagnostics.
func (t *LocalityTracker) HitRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}

package runner

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/taskrt"
)

// PeerFetcher is the peer tier of a tiered store: given a key neither memory
// nor disk holds, it may fetch the result from another node of the fleet
// (sweepd serves GET /results/{key} from its local tiers; see
// internal/remote.PeerSource for the HTTP implementation). A fetch failure
// of any kind is reported as a miss — the store then computes the point
// itself — so a dead peer degrades throughput, never correctness.
type PeerFetcher interface {
	FetchResult(ctx context.Context, key string) (*core.Result, bool)
}

// StoreOptions configures OpenStore.
type StoreOptions struct {
	// Dir is the disk tier's directory ("" for a memory-only store),
	// created if needed.
	Dir string
	// MemBytes bounds the in-memory tier: resident results beyond the
	// budget are evicted least-recently-used (disk-backed stores reload
	// them from disk on the next hit). <= 0 means unbounded.
	MemBytes int64
	// DiskBytes bounds the disk tier: when persisted results exceed the
	// budget, GC deletes the least-recently-accessed result files until the
	// tier fits. <= 0 means unbounded. Keys with an in-flight computation
	// are never GC victims.
	DiskBytes int64
	// Peers, when non-nil, is consulted after a memory and disk miss and
	// before computing: a fleet-wide hit is persisted locally and served
	// like any other cached result.
	Peers PeerFetcher
}

// Store is a concurrency-safe, tiered result cache keyed by
// content-addressed job keys. Lookups resolve through up to three tiers:
//
//	memory — bounded LRU of resident results (StoreOptions.MemBytes)
//	disk   — JSON result files, indexed in memory at open and GCed by
//	         last access to StoreOptions.DiskBytes
//	peers  — other fleet nodes' stores, over GET /results/{key}
//
// Store also deduplicates concurrent computations of the same key
// (singleflight): when several workers ask for one point at once, exactly
// one disk load, peer fetch, or simulation runs and the others wait for its
// result — a thundering herd on one cold key becomes one peer round-trip.
type Store struct {
	// Metrics, when non-nil, counts hits/misses/evictions/quarantines and
	// times Do by outcome (see StoreMetrics). Set it before the store is
	// shared.
	Metrics *StoreMetrics

	mu       sync.Mutex
	mem      map[string]*list.Element // of *memEntry, in s.lru
	lru      *list.List               // front = most recently used
	memBytes int64
	inflight map[string]*call
	idx      *diskIndex // nil when memory-only

	dir       string // "" means memory-only
	memLimit  int64
	diskLimit int64
	peers     PeerFetcher

	// now stamps index accesses and disk hits' file mtimes; swappable in
	// tests.
	now func() time.Time
}

// memEntry is one resident result in the memory tier.
type memEntry struct {
	key   string
	res   *core.Result
	bytes int64
}

type call struct {
	done chan struct{}
	res  *core.Result
	err  error
}

// OpenStore creates a store from options, building the disk tier's index
// from the result files when a directory is configured.
func OpenStore(opts StoreOptions) (*Store, error) {
	s := &Store{
		mem:       make(map[string]*list.Element),
		lru:       list.New(),
		inflight:  make(map[string]*call),
		dir:       opts.Dir,
		memLimit:  opts.MemBytes,
		diskLimit: opts.DiskBytes,
		peers:     opts.Peers,
		now:       time.Now,
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: create store directory: %w", err)
		}
		idx, err := openIndex(opts.Dir)
		if err != nil {
			return nil, err
		}
		s.idx = idx
	}
	return s, nil
}

// NewStore creates an unbounded in-memory store.
func NewStore() *Store {
	s, _ := OpenStore(StoreOptions{}) // memory-only open cannot fail
	return s
}

// NewDiskStore creates an unbounded store backed by a directory of JSON
// result files, creating the directory if needed. Results already present in
// the directory are served as cache hits.
func NewDiskStore(dir string) (*Store, error) {
	return OpenStore(StoreOptions{Dir: dir})
}

// Dir returns the backing directory ("" for a memory-only store).
func (s *Store) Dir() string { return s.dir }

// Len returns the number of results resident in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Keys returns the sorted keys of the results resident in memory.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MemBytesUsed returns the bytes held by the memory tier (the serialized
// size of every resident result).
func (s *Store) MemBytesUsed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memBytes
}

// DiskBytesUsed returns the bytes the disk tier's index accounts for (0 for
// a memory-only store).
func (s *Store) DiskBytesUsed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		return 0
	}
	return s.idx.total
}

// Get returns the cached result for a key, consulting memory first and then
// the backing directory (disk reads happen outside the store lock). Peers
// are deliberately not consulted: Get is the lookup behind each node's
// GET /results/{key}, and a local-tiers-only answer keeps peer fetches from
// cascading across the fleet.
func (s *Store) Get(key string) (*core.Result, bool) {
	s.mu.Lock()
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		res := el.Value.(*memEntry).res
		if s.idx != nil {
			s.idx.touch(key, s.now().UnixNano())
		}
		s.mu.Unlock()
		return res, true
	}
	s.mu.Unlock()
	if res, size, ok := s.load(key); ok {
		s.touch(key)
		s.mu.Lock()
		s.insertMemLocked(key, res, size)
		s.mu.Unlock()
		return res, true
	}
	return nil, false
}

// Put stores a result under a key, persisting it when the store is
// disk-backed and evicting over-budget tiers.
func (s *Store) Put(key string, res *core.Result) error {
	size, err := s.save(key, res)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.insertMemLocked(key, res, size)
	s.mu.Unlock()
	s.GC()
	return nil
}

// Do returns the cached result for key, resolving through the tiers
// (memory, an in-flight computation, disk, peers) before computing it with
// fn(ctx). Concurrent calls for the same key share a single resolution. The
// second return value reports whether the result came from any cache tier
// rather than fn.
//
// Cancellation is per caller: a waiter whose ctx dies stops waiting and
// returns the cancellation cause without affecting the in-flight computation,
// and a waiter whose owner dies of the *owner's* cancellation takes over the
// key and computes it under its own (still live) context instead of
// inheriting the foreign cancellation error.
func (s *Store) Do(ctx context.Context, key string, fn func(context.Context) (*core.Result, error)) (*core.Result, bool, error) {
	var start time.Time
	if s.Metrics != nil {
		start = time.Now()
	}
	for {
		s.mu.Lock()
		if el, ok := s.mem[key]; ok {
			s.lru.MoveToFront(el)
			res := el.Value.(*memEntry).res
			if s.idx != nil {
				s.idx.touch(key, s.now().UnixNano())
			}
			s.mu.Unlock()
			s.noteHit("mem", start)
			return res, true, nil
		}
		c, ok := s.inflight[key]
		if !ok {
			break // this caller becomes the owner; the lock is still held
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, false, context.Cause(ctx)
		case <-c.done:
			if c.err != nil && isCancellation(c.err) && ctx.Err() == nil {
				// The owner's request died, ours is alive: retry, most
				// likely becoming the new owner of the key.
				continue
			}
			if c.err == nil {
				s.noteHit("inflight", start)
			}
			return c.res, true, c.err
		}
	}
	c := &call{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	// Disk loads, peer fetches, simulation and persistence all happen
	// outside the store lock; concurrent requests for this key wait on the
	// inflight call.
	cached := false
	var size int64
	if res, n, ok := s.load(key); ok {
		c.res, size, cached = res, n, true
		s.touch(key)
		s.noteHit("disk", start)
	} else if res, ok := s.fetchPeer(ctx, key); ok {
		// A fleet-wide hit: persist it locally best-effort (losing the
		// persist only costs a refetch later, never the result in hand).
		c.res, cached = res, true
		if n, err := s.save(key, res); err == nil {
			size = n
		} else if s.Metrics != nil {
			s.Metrics.PersistFailures.Inc()
		}
		s.noteHit("peer", start)
	} else {
		c.res, c.err = fn(ctx)
		if c.err == nil {
			// A failed persist leaves the key uncached everywhere, so
			// the error and the cache state agree (a retry re-simulates).
			size, c.err = s.save(key, c.res)
			if c.err != nil && s.Metrics != nil {
				s.Metrics.PersistFailures.Inc()
			}
		}
		s.noteMiss(start)
	}
	s.mu.Lock()
	delete(s.inflight, key)
	if c.err == nil {
		s.insertMemLocked(key, c.res, size)
	}
	s.mu.Unlock()
	close(c.done)
	s.GC()
	return c.res, cached, c.err
}

// fetchPeer asks the peer tier for a key; a nil fetcher is a miss.
func (s *Store) fetchPeer(ctx context.Context, key string) (*core.Result, bool) {
	if s.peers == nil || ctx.Err() != nil {
		return nil, false
	}
	return s.peers.FetchResult(ctx, key)
}

// insertMemLocked makes a result resident, evicting from the LRU tail while
// the memory tier is over budget. Callers hold s.mu. Eviction only ever
// touches resident entries: a key whose computation is in flight lives in
// s.inflight, not the LRU, so it cannot be dropped. A result larger than
// the whole budget is inserted and immediately evicted again — the caller
// already holds the pointer, and disk-backed stores can reload it.
func (s *Store) insertMemLocked(key string, res *core.Result, size int64) {
	if el, ok := s.mem[key]; ok {
		e := el.Value.(*memEntry)
		s.memBytes += size - e.bytes
		e.res, e.bytes = res, size
		s.lru.MoveToFront(el)
	} else {
		s.mem[key] = s.lru.PushFront(&memEntry{key: key, res: res, bytes: size})
		s.memBytes += size
	}
	if s.memLimit <= 0 {
		return
	}
	for s.memBytes > s.memLimit && s.lru.Len() > 0 {
		el := s.lru.Back()
		e := el.Value.(*memEntry)
		s.lru.Remove(el)
		delete(s.mem, e.key)
		s.memBytes -= e.bytes
		if s.Metrics != nil {
			s.Metrics.MemEvictions.Inc()
		}
	}
}

// touch records a disk hit: it refreshes the key's index stamp and its
// file's mtime, which the index is built from at the next open, so GC order
// survives a restart. A failed stamp only skews that order.
func (s *Store) touch(key string) {
	now := s.now()
	_ = os.Chtimes(s.path(key), now, now)
	s.mu.Lock()
	s.idx.touch(key, now.UnixNano())
	s.mu.Unlock()
}

// GC brings the disk tier back under its byte budget by deleting the
// least-recently-accessed result files, returning the bytes freed. Keys
// with an in-flight computation are never victims (their just-persisted
// files are the hottest in the store). Do and Put GC automatically; an
// explicit call is only needed after lowering the budget out of band.
func (s *Store) GC() int64 {
	s.mu.Lock()
	if s.idx == nil || s.diskLimit <= 0 || s.idx.total <= s.diskLimit {
		s.mu.Unlock()
		return 0
	}
	victims := s.idx.victims(s.diskLimit, s.inflight)
	var freed int64
	for _, key := range victims {
		freed += s.idx.entries[key].bytes
		s.idx.del(key)
	}
	s.mu.Unlock()
	// File removal happens outside the lock; a concurrent load racing a
	// removal either wins (the open file keeps serving) or misses and
	// recomputes — both sound.
	for _, key := range victims {
		os.Remove(s.path(key))
		if s.Metrics != nil {
			s.Metrics.DiskEvictions.Inc()
		}
	}
	return freed
}

// noteHit records one cache hit by source and its resolution latency.
func (s *Store) noteHit(source string, start time.Time) {
	m := s.Metrics
	if m == nil {
		return
	}
	m.Hits.With(source).Inc()
	m.HitSeconds.Observe(time.Since(start).Seconds())
}

// noteMiss records one computed key and the full compute+persist latency.
func (s *Store) noteMiss(start time.Time) {
	m := s.Metrics
	if m == nil {
		return
	}
	m.Misses.Inc()
	m.MissSeconds.Observe(time.Since(start).Seconds())
}

// isCancellation reports whether an in-flight computation failed because its
// owner's request was cancelled (rather than because the point itself is
// broken, which every waiter should see). Contexts cancelled with a custom
// cause surface through taskrt.ErrCancelled rather than context.Canceled.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, taskrt.ErrCancelled)
}

// fileName flattens a key into a safe file-name fragment. Keys are hex
// digests, but defend against anything path-like all the same: path
// separators would escape the store directory, and '*' is os.CreateTemp's
// random placeholder (save builds its temp pattern from the same fragment).
func fileName(key string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', '*':
			return '_'
		}
		return r
	}, key)
}

// path maps a key to its file.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, fileName(key)+".json")
}

// load reads a persisted result and its on-disk size. Unreadable or corrupt
// files (for example a file truncated by a crash) are treated as cache
// misses so the point is simply re-simulated; corrupt files are additionally
// quarantined (renamed to CorruptSuffix) so a resume never re-parses known
// garbage and the operator can inspect what the crash left behind.
func (s *Store) load(key string) (*core.Result, int64, bool) {
	if s.dir == "" {
		return nil, 0, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, 0, false
	}
	var res core.Result
	// A decode error or an incomplete result (a truncated write, or a file
	// from a foreign schema sharing the key space) is a cache miss, never a
	// partially populated result.
	if err := json.Unmarshal(data, &res); err != nil || !res.Complete() {
		s.quarantine(key)
		return nil, 0, false
	}
	return &res, int64(len(data)), true
}

// CorruptSuffix is appended to the file name of a result file the store could
// not parse (a write truncated by a crash, or a foreign file sharing the key
// space). Quarantined files never serve cache hits and are preserved for
// inspection; re-simulating the point writes a fresh file under the original
// name.
const CorruptSuffix = ".corrupt"

// quarantine moves an unparsable result file aside, best-effort: a failed
// rename (for example a concurrent re-simulation already replaced the file)
// just leaves the file to be overwritten by the next save. The index entry
// goes with it so GC accounting stays truthful.
func (s *Store) quarantine(key string) {
	p := s.path(key)
	_ = os.Rename(p, p+CorruptSuffix)
	s.mu.Lock()
	if s.idx != nil {
		s.idx.del(key)
	}
	s.mu.Unlock()
	if s.Metrics != nil {
		s.Metrics.Quarantines.Inc()
	}
}

// save persists a result when the store is disk-backed, writing to a
// temporary file and renaming so readers never observe partial writes, and
// records the key in the disk index. It returns the serialized size (also
// the memory tier's accounting unit, so memory-only bounded stores pay the
// same marshal).
func (s *Store) save(key string, res *core.Result) (int64, error) {
	if s.dir == "" && s.memLimit <= 0 {
		return 0, nil // nothing to persist, nothing to account
	}
	data, err := json.Marshal(res)
	if err != nil {
		return 0, fmt.Errorf("runner: encode result %s: %w", key, err)
	}
	size := int64(len(data))
	if s.dir == "" {
		return size, nil
	}
	tmp, err := os.CreateTemp(s.dir, "."+fileName(key)+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("runner: persist result %s: %w", key, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("runner: persist result %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("runner: persist result %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("runner: persist result %s: %w", key, err)
	}
	s.mu.Lock()
	s.idx.put(key, size, s.now().UnixNano())
	s.mu.Unlock()
	return size, nil
}

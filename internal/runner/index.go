package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The disk tier's index maps every persisted key to its file size and
// last-access stamp, so GC can pick LRU victims without touching the
// filesystem. It lives in memory only: opening a store builds it from the
// result files, which are the single source of truth. Every non-hidden
// *.json file is a result, sized from the file, its access stamp taken from
// the file's mtime; disk hits refresh that mtime (Store.touch), so GC order
// survives a restart.

// idxEntry is the live state of one persisted result.
type idxEntry struct {
	bytes int64
	// access is the last read or write, unix nanoseconds.
	access int64
}

// diskIndex tracks the disk tier. All methods require the owning Store's
// mutex.
type diskIndex struct {
	entries map[string]*idxEntry
	total   int64 // sum of entry bytes
}

// openIndex builds the index for a store directory from its result files.
// Quarantined and temporary files are skipped. The journal an older binary
// kept beside the results (".index") is deleted: nothing reads it anymore.
func openIndex(dir string) (*diskIndex, error) {
	_ = os.Remove(filepath.Join(dir, ".index"))
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runner: open store index: %w", err)
	}
	x := &diskIndex{entries: make(map[string]*idxEntry)}
	for _, d := range dirents {
		name := d.Name()
		if strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		info, err := d.Info()
		if err != nil {
			continue // deleted mid-scan; it is not a cached result anymore
		}
		x.put(strings.TrimSuffix(name, ".json"), info.Size(), info.ModTime().UnixNano())
	}
	return x, nil
}

// put records a persisted result.
func (x *diskIndex) put(key string, bytes, access int64) {
	if e, ok := x.entries[key]; ok {
		x.total -= e.bytes
	}
	x.entries[key] = &idxEntry{bytes: bytes, access: access}
	x.total += bytes
}

// touch refreshes a key's last access.
func (x *diskIndex) touch(key string, access int64) {
	if e, ok := x.entries[key]; ok {
		e.access = access
	}
}

// del drops a key (its file is the caller's to remove).
func (x *diskIndex) del(key string) {
	if e, ok := x.entries[key]; ok {
		x.total -= e.bytes
		delete(x.entries, key)
	}
}

// victims returns up to enough least-recently-accessed keys to bring the
// tier from total down to limit, skipping keys the skip set protects.
func (x *diskIndex) victims(limit int64, skip map[string]*call) []string {
	type cand struct {
		key    string
		bytes  int64
		access int64
	}
	cands := make([]cand, 0, len(x.entries))
	for k, e := range x.entries {
		if _, held := skip[k]; held {
			continue
		}
		cands = append(cands, cand{k, e.bytes, e.access})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].access != cands[j].access {
			return cands[i].access < cands[j].access
		}
		return cands[i].key < cands[j].key // deterministic among equal stamps
	})
	over := x.total - limit
	var out []string
	for _, c := range cands {
		if over <= 0 {
			break
		}
		out = append(out, c.key)
		over -= c.bytes
	}
	return out
}

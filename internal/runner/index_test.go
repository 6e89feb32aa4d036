package runner

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/taskrt"
)

// testResult returns one canned simulation result for store tests.
func testResult(t *testing.T) *core.Result {
	t.Helper()
	res, err := (&Engine{Base: testBase()}).Run(Job{
		Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIndexCrashRebuild: reopening a store, as after a crash, builds its
// index from the result files alone: every key stays warm and the disk tier
// accounts the same bytes. Stores written by older binaries also hold a
// ".index" journal; whatever state a crash left it in, reopening ignores it
// and deletes it.
func TestIndexCrashRebuild(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	keys := []string{"k-alpha", "k-beta", "k-gamma", "k-delta", "k-epsilon"}
	for _, k := range keys {
		if err := st.Put(k, res); err != nil {
			t.Fatal(err)
		}
	}
	used := st.DiskBytesUsed()
	if used <= 0 {
		t.Fatal("disk tier accounts zero bytes after five puts")
	}

	journal := filepath.Join(dir, ".index")
	header := `{"format":"repro/store-index","v":1}` + "\n"
	leftovers := []struct{ name, journal string }{
		{"missing", ""},
		{"truncated-mid-record", header + `{"op":"put","key":"k-alpha","bytes":12`},
		{"foreign-header", "not an index\n"},
		{"unknown-op", header + `{"op":"frobnicate","key":"x"}` + "\n"},
	}
	for _, tc := range leftovers {
		t.Run(tc.name, func(t *testing.T) {
			if tc.journal != "" {
				if err := os.WriteFile(journal, []byte(tc.journal), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			re, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := re.DiskBytesUsed(); got != used {
				t.Errorf("reopened store accounts %d disk bytes, want %d", got, used)
			}
			for _, k := range keys {
				if _, ok := re.Get(k); !ok {
					t.Errorf("key %q lost across a reopen", k)
				}
			}
			if _, err := os.Stat(journal); !os.IsNotExist(err) {
				t.Errorf("an older binary's journal survived the reopen: %v", err)
			}
		})
	}
}

// TestDiskHitRecencySurvivesReopen: a disk hit stamps its file, so after a
// restart GC still evicts the key nobody read, not the one a reader kept
// warm. Both files start with equal mtimes, where GC's tie-break would pick
// the read key.
func TestDiskHitRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	for _, k := range []string{"a-read", "b-unread"} {
		if err := st.Put(k, res); err != nil {
			t.Fatal(err)
		}
	}
	base := time.Unix(1_000_000, 0)
	for _, k := range []string{"a-read", "b-unread"} {
		if err := os.Chtimes(st.path(k), base, base); err != nil {
			t.Fatal(err)
		}
	}

	reader, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader.now = func() time.Time { return base.Add(time.Hour) }
	if _, ok := reader.Get("a-read"); !ok {
		t.Fatal("persisted key missed")
	}

	restarted, err := OpenStore(StoreOptions{Dir: dir, DiskBytes: mustSize(t, res)})
	if err != nil {
		t.Fatal(err)
	}
	if restarted.GC() <= 0 {
		t.Fatal("GC freed nothing from a tier over its budget")
	}
	if _, err := os.Stat(restarted.path("b-unread")); !os.IsNotExist(err) {
		t.Errorf("the unread key survived GC: %v", err)
	}
	if _, ok := restarted.Get("a-read"); !ok {
		t.Error("GC evicted the key a reader kept warm before the restart")
	}
}

// TestIndexVictimsSkipInflight: GC victim selection never picks a key whose
// computation is in flight, no matter how cold its stamp.
func TestIndexVictimsSkipInflight(t *testing.T) {
	dir := t.TempDir()
	idx, err := openIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	idx.put("cold-inflight", 100, 1) // coldest stamp of all
	idx.put("cold", 100, 2)
	idx.put("warm", 100, 3)
	inflight := map[string]*call{"cold-inflight": {}}
	victims := idx.victims(150, inflight) // need to shed 150 of 300 bytes
	for _, v := range victims {
		if v == "cold-inflight" {
			t.Fatalf("GC chose an in-flight key: %v", victims)
		}
	}
	if len(victims) != 2 || victims[0] != "cold" || victims[1] != "warm" {
		t.Errorf("victims = %v, want [cold warm] (LRU order, inflight skipped)", victims)
	}
}

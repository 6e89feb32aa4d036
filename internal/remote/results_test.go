package remote

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/taskrt"
)

// cachedResult runs one point and returns it with its store key.
func cachedResult(t *testing.T) (*core.Result, string) {
	t.Helper()
	eng := &runner.Engine{Base: testBase()}
	job := runner.Job{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO}
	res, err := eng.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.Key(job)
}

// resultsServer is a service node serving GET /v1/results/{key} over a
// store seeded with the given key.
func resultsServer(t *testing.T, key string, res *core.Result) *httptest.Server {
	t.Helper()
	st := runner.NewStore()
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	return workerServerFor(t, &runner.Engine{Base: testBase(), Store: st})
}

// TestResultsHandler: a node's GET /v1/results/{key} returns the stored
// result byte-comparably on a hit and 404s on a miss.
func TestResultsHandler(t *testing.T) {
	res, key := cachedResult(t)
	ts := resultsServer(t, key, res)

	resp, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit status = %d", resp.StatusCode)
	}
	var got core.Result
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(res)
	gotJSON, _ := json.Marshal(&got)
	if string(gotJSON) != string(wantJSON) {
		t.Error("served result differs from the stored result")
	}

	resp, err = http.Get(ts.URL + "/v1/results/no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("miss status = %d, want 404", resp.StatusCode)
	}
}

// TestPeerSourceFirstHitWins: a dead peer and a missing peer are tolerated;
// the first peer holding the key answers and later peers are never asked.
func TestPeerSourceFirstHitWins(t *testing.T) {
	res, key := cachedResult(t)

	// Peer 1: dead (closed listener). Peer 2: alive but cold. Peer 3: warm.
	// Peer 4: would panic the test if consulted after a hit.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	cold := workerServer(t)
	warm := resultsServer(t, key, res)
	tripwire := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("peer after the first hit was consulted")
	}))
	t.Cleanup(tripwire.Close)

	ps := NewPeerSource([]string{dead.URL, cold.URL, warm.URL, tripwire.URL})
	got, ok := ps.FetchResult(context.Background(), key)
	if !ok {
		t.Fatal("fetch missed although a peer holds the key")
	}
	if got.Cycles != res.Cycles {
		t.Error("peer fetch returned a foreign result")
	}

	// All peers cold or dead: a clean miss, not an error.
	coldOnly := NewPeerSource([]string{dead.URL, cold.URL})
	if _, ok := coldOnly.FetchResult(context.Background(), "absent-key"); ok {
		t.Error("fetch hit on a key no peer holds")
	}
}

// TestPeerSourceRejectsMalformed: truncated, foreign or incomplete bodies
// are channel errors, never returned as results.
func TestPeerSourceRejectsMalformed(t *testing.T) {
	bodies := map[string]string{
		"truncated":     `{"result": {"cy`,
		"foreign":       `{"hello": "world"}`,
		"empty":         ``,
		"cycles-only":   `{"Cycles": 42}`,
		"empty-program": `{"Cycles":42,"Program":{}}`,
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(body))
			}))
			t.Cleanup(ts.Close)
			ps := &PeerSource{URLs: []string{ts.URL}}
			if _, ok := ps.FetchResult(context.Background(), "some-key"); ok {
				t.Error("malformed peer body accepted as a result")
			}
		})
	}
}

// TestNewPeerSourceEmpty: blank URL lists yield a true nil interface, so the
// store's nil check disables the peer tier (a typed nil would panic it).
func TestNewPeerSourceEmpty(t *testing.T) {
	for _, urls := range [][]string{nil, {}, {""}, {" ", "\t"}} {
		if ps := NewPeerSource(urls); ps != nil {
			t.Errorf("NewPeerSource(%q) = %v, want nil", urls, ps)
		}
	}
	if ps := NewPeerSource([]string{" http://x ", ""}); ps == nil {
		t.Error("non-blank URL list yielded a nil source")
	}
}

// TestStorePeerTier end-to-end: a store with a peer serves a warm key
// through Do without executing, and records the hit as source "peer".
func TestStorePeerTier(t *testing.T) {
	res, key := cachedResult(t)
	warm := resultsServer(t, key, res)

	st, err := runner.OpenStore(runner.StoreOptions{
		Dir:   t.TempDir(),
		Peers: NewPeerSource([]string{warm.URL}),
	})
	if err != nil {
		t.Fatal(err)
	}
	executed := false
	got, cached, err := st.Do(context.Background(), key, func(context.Context) (*core.Result, error) {
		executed = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed {
		t.Error("Do executed although a peer held the result")
	}
	if !cached {
		t.Error("peer-fetched result not reported as cached")
	}
	if got.Cycles != res.Cycles {
		t.Error("peer tier returned a foreign result")
	}
	// The fetched result landed in the local tiers: a second Do must not
	// touch the peer again.
	warm.Close()
	if _, ok := st.Get(key); !ok {
		t.Error("peer-fetched result not persisted locally")
	}
}

package perf

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/runner"
	"repro/internal/service"
)

// Service-level probes: instead of timing the simulator, these time the
// machinery wrapped around it — the HTTP submit path, the fleet dispatch
// loop, and the content-addressed store — so a regression in the service
// layer is caught even when every simulation probe is flat.

// submitBody is the tiny grid the service probes submit: a single small
// synthetic point, so the measured time is dominated by service machinery.
const submitBody = `{"benchmarks":["synth:blockdense:width=4,mean=500"],"runtimes":["tdm"]}`

// benchServiceSubmitFirstRow measures the submit-to-first-NDJSON-row path of
// POST /v1/sweeps?stream=1 against a warm store: decode, grid expansion, sweep
// bookkeeping, a store hit, and the streaming write back — the latency floor
// a client sees before any result arrives.
func benchServiceSubmitFirstRow(b *testing.B, extra map[string]float64) {
	engine := &runner.Engine{Base: core.DefaultConfig(core.TDM), Store: runner.NewStore(), Workers: 2}
	srv := service.New(engine, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func() time.Duration {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/sweeps?stream=1", "application/json", bytes.NewReader([]byte(submitBody)))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("submit: status %d", resp.StatusCode)
		}
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadBytes('\n'); err != nil {
			b.Fatalf("first row: %v", err)
		}
		firstRow := time.Since(start)
		// Drain so the sweep settles instead of being cancelled by the
		// disconnect.
		_, _ = io.Copy(io.Discard, br)
		return firstRow
	}
	submit() // warm the store: measured iterations time the service, not the simulator
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += submit()
	}
	extra["first_row_ns"] = float64(total.Nanoseconds()) / float64(b.N)
}

// benchServiceDispatchPoints measures fleet dispatch throughput: a
// coordinator sharding a small grid over two in-process HTTP workers (plain
// service nodes serving POST /execute), from submission to the last settled
// point. Worker stores stay warm across iterations, so the steady state
// times the dispatch round-trips and the coordinator's store/queue
// machinery rather than the simulations.
func benchServiceDispatchPoints(b *testing.B, extra map[string]float64) {
	newWorker := func() *httptest.Server {
		eng := &runner.Engine{Base: core.DefaultConfig(core.TDM), Store: runner.NewStore(), Workers: 2}
		return httptest.NewServer(service.New(eng, 0).Handler())
	}
	w1, w2 := newWorker(), newWorker()
	defer w1.Close()
	defer w2.Close()

	grid := runner.Grid{
		Benchmarks: []string{"synth:blockdense:width=4,mean=500"},
		Cores:      []int{8, 16},
	}
	if err := grid.Validate(); err != nil {
		b.Fatal(err)
	}
	points := grid.Size()

	run := func() {
		// A fresh coordinator per iteration: its store must be cold or no
		// point would be dispatched at all.
		engine := &runner.Engine{Base: core.DefaultConfig(core.TDM), Store: runner.NewStore(), Workers: 2}
		srv := service.New(engine, 0)
		srv.RegisterWorker(w1.URL, remote.NewExecutor(w1.URL), 2)
		srv.RegisterWorker(w2.URL, remote.NewExecutor(w2.URL), 2)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/sweeps?stream=1", "application/json",
			bytes.NewReader([]byte(`{"benchmarks":["synth:blockdense:width=4,mean=500"],"cores":[8,16]}`)))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("submit: status %d", resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		srv.Drain(nil)
	}
	run() // warm the worker stores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	extra["points_per_op"] = float64(points)
}

// benchStoreHitMiss measures the disk store's two paths separately: a miss
// (compute + persist of a canned result) and a hit (memory lookup), reported
// as extra metrics next to the combined ns/op.
func benchStoreHitMiss(b *testing.B, extra map[string]float64) {
	st, err := runner.NewDiskStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	canned, err := core.RunBenchmark("synth:blockdense:width=2,mean=200", core.DefaultConfig(core.Software))
	if err != nil {
		b.Fatal(err)
	}
	ctx := b.Context()
	compute := func(context.Context) (*core.Result, error) { return canned, nil }
	b.ResetTimer()
	var missTotal, hitTotal time.Duration
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("perf-hit-miss-%d", i)
		start := time.Now()
		if _, _, err := st.Do(ctx, key, compute); err != nil {
			b.Fatal(err)
		}
		missTotal += time.Since(start)
		start = time.Now()
		if _, _, err := st.Do(ctx, key, compute); err != nil {
			b.Fatal(err)
		}
		hitTotal += time.Since(start)
	}
	extra["miss_ns"] = float64(missTotal.Nanoseconds()) / float64(b.N)
	extra["hit_ns"] = float64(hitTotal.Nanoseconds()) / float64(b.N)
}

// benchStorePeerFetch measures the peer tier of the fleet-wide cache: a cold
// local store resolving a key through GET /v1/results/{key} against a warm peer
// over loopback HTTP — decode, validation and local re-persist included. This
// is the latency a fleet pays instead of re-simulating a point some other
// daemon already computed.
func benchStorePeerFetch(b *testing.B, extra map[string]float64) {
	canned, err := core.RunBenchmark("synth:blockdense:width=2,mean=200", core.DefaultConfig(core.Software))
	if err != nil {
		b.Fatal(err)
	}
	const key = "perf-peer-fetch"
	peerStore := runner.NewStore()
	if err := peerStore.Put(key, canned); err != nil {
		b.Fatal(err)
	}
	peerEngine := &runner.Engine{Base: core.DefaultConfig(core.Software), Store: peerStore}
	peer := httptest.NewServer(service.New(peerEngine, 0).Handler())
	defer peer.Close()

	ctx := b.Context()
	compute := func(context.Context) (*core.Result, error) {
		return nil, fmt.Errorf("peer tier missed: compute reached")
	}
	b.ResetTimer()
	var fetchTotal time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh cold store per iteration: the second fetch of a key would
		// be a memory hit and time nothing peer-related.
		st, err := runner.OpenStore(runner.StoreOptions{
			Peers: remote.NewPeerSource([]string{peer.URL}),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		if _, cached, err := st.Do(ctx, key, compute); err != nil || !cached {
			b.Fatalf("peer fetch: cached=%v err=%v", cached, err)
		}
		fetchTotal += time.Since(start)
	}
	extra["fetch_ns"] = float64(fetchTotal.Nanoseconds()) / float64(b.N)
}

// benchServiceTenantDispatch measures multi-tenant dispatch overhead: two
// weighted tenants contending for the service's execution slots over a warm
// store, submission to last settled point. Simulation time is ~zero (every
// point is a store hit), so this times admission, the stride scheduler's
// grant traffic, and sweep bookkeeping.
func benchServiceTenantDispatch(b *testing.B, extra map[string]float64) {
	engine := &runner.Engine{Base: core.DefaultConfig(core.TDM), Store: runner.NewStore(), Workers: 2}
	srv := service.New(engine, 2)
	if _, err := srv.ConfigureTenant("heavy", service.TenantConfig{Weight: 2}); err != nil {
		b.Fatal(err)
	}
	if _, err := srv.ConfigureTenant("light", service.TenantConfig{Weight: 1}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const tenantBody = `{"benchmarks":["synth:blockdense:width=4,mean=500"],"cores":[8,16,32,64],"tenant":%q}`
	run := func() {
		done := make(chan error, 2)
		for _, tenant := range []string{"heavy", "light"} {
			go func(tenant string) {
				resp, err := http.Post(ts.URL+"/v1/sweeps?stream=1", "application/json",
					bytes.NewReader([]byte(fmt.Sprintf(tenantBody, tenant))))
				if err != nil {
					done <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("submit(%s): status %d", tenant, resp.StatusCode)
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				done <- err
			}(tenant)
		}
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
	run() // warm the store: measured iterations are pure dispatch machinery
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	extra["points_per_op"] = 8 // 4 per tenant, 2 tenants
}

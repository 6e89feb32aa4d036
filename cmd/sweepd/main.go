// Command sweepd is the long-running sweep service: an HTTP daemon that
// accepts simulation-grid submissions, executes them on the shared parallel
// sweep engine, and streams per-point results as NDJSON while they complete.
//
//	sweepd -addr :8080 -store results/
//
// Submit a grid and stream its results on the same connection (aborting the
// request cancels the sweep's in-flight simulations):
//
//	curl -N -X POST 'localhost:8080/v1/sweeps?stream=1' -d '{
//	  "benchmarks": ["cholesky", "synth:layered:seed=7"],
//	  "runtimes": ["software", "tdm"],
//	  "schedulers": ["fifo", "locality"],
//	  "cores": [16, 32]
//	}'
//
// Or submit asynchronously and follow by ID:
//
//	curl -X POST localhost:8080/v1/sweeps -d '{"benchmarks":["histogram"]}'
//	curl localhost:8080/v1/sweeps/s0001
//	curl -N localhost:8080/v1/sweeps/s0001/stream
//	curl -X POST localhost:8080/v1/sweeps/s0001/cancel
//
// The API lives under /v1/; unprefixed paths 404 with the standard
// envelope, and every non-2xx response carries the {"error","code",...}
// envelope documented in the README. A submission with a "search" stanza
// runs a seeded successive-halving design-space search over the grid
// instead of exhausting it — see the README's design-space search section.
//
// With -store the service shares one content-addressed disk store across
// every sweep: identical points are simulated once, and because result files
// are written atomically (temp file + rename) the store survives crashes — a
// killed daemon restarts with every completed point warm.
//
// SIGTERM (or SIGINT) drains gracefully: new submissions get 503, running
// sweeps are cancelled — in-flight simulation points stop at task-boundary
// granularity — their final state is flushed to open streams, and the
// process exits 0.
//
// # Fleet mode
//
// Every sweepd serves POST /execute, so any sweepd can be a worker of
// another. Point a coordinator at plain sweepds:
//
//	sweepd -addr :8081
//	sweepd -addr :8082
//	sweepd -addr :8080 -store results/ -peers http://host1:8081,http://host2:8082
//
// or register workers at runtime:
//
//	curl -X PUT localhost:8080/v1/workers -d '{"url":"http://host3:8083","slots":4}'
//
// The coordinator gives each point of a submitted grid the next free slot
// on any live worker, requeues points whose worker dies mid-flight, and
// merges all results into its own content-addressed store — so the fleet
// is crash-tolerant and warm keys are never dispatched twice. Its own
// engine is the standby worker: it simulates only once every registered
// worker of a sweep has died. A worker runs each /execute point on its own
// engine, never on its own fleet, so a fleet stays one level deep, and the
// -workers bound holds across the points a node executes for others and
// those it runs for its own sweeps.
//
// # Tiered store
//
// The result store is a tiered cache: a bounded in-memory LRU
// (-store-mem-bytes) over the -store directory (bounded by -store-max-bytes;
// least-recently-accessed result files are GCed, and the files' mtimes carry
// that order across restarts), over the rest of the fleet (-store-peers): a
// key missing from both local tiers is fetched from peers'
// GET /v1/results/{key} before being simulated, so any result computed
// anywhere in the fleet is computed once. Every sweepd serves
// GET /v1/results/{key} from its local tiers only.
//
// # Multi-tenancy
//
// Submissions may carry a tenant ({"tenant": "acme", ...}); tenants get
// weighted-fair shares of execution capacity under contention and optional
// admission quotas (429 when exceeded). Configure with:
//
//	curl -X PUT localhost:8080/v1/tenants/acme -d '{"weight":2,"max_active_points":500}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/taskrt"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		store     = flag.String("store", "", "directory persisting results as JSON for warm resume across restarts")
		memBytes  = flag.Int64("store-mem-bytes", 0, "bound the store's in-memory result tier (bytes, LRU-evicted; 0 = unbounded)")
		diskBytes = flag.Int64("store-max-bytes", 0, "bound the -store directory (bytes; least-recently-accessed result files are GCed; 0 = unbounded)")
		storePeer = flag.String("store-peers", "", "comma-separated sweepd base URLs to fetch cold results from before simulating (fleet-wide cache)")
		workers   = flag.Int("workers", 0, "concurrent simulations across all sweeps (0 = GOMAXPROCS)")
		verbose   = flag.Bool("v", false, "log per-simulation progress")
		drainFor  = flag.Duration("drain-timeout", 30*time.Second, "maximum time to wait for connections to close after drain")
		peers     = flag.String("peers", "", "comma-separated worker base URLs to shard sweeps across (coordinator mode)")
		peerSlots = flag.Int("peer-slots", 0, "concurrent points dispatched to each -peers worker (0 = default)")
		maxPoints = flag.Int("max-points", service.DefaultMaxPoints, "largest grid expansion a submission may request")
	)
	flag.Parse()

	// The peer source is attached to the store before any simulation: a cold
	// key then resolves memory -> disk -> peers -> simulate.
	peerSource := remote.NewPeerSource(strings.Split(*storePeer, ","))
	st, err := runner.OpenStore(runner.StoreOptions{
		Dir:       *store,
		MemBytes:  *memBytes,
		DiskBytes: *diskBytes,
		Peers:     peerSource,
	})
	if err != nil {
		log.Fatalf("sweepd: %v", err)
	}
	engine := &runner.Engine{
		Base:    core.DefaultConfig(taskrt.Software),
		Store:   st,
		Workers: *workers,
	}
	if *verbose {
		engine.Log = os.Stderr
	}
	if *store != "" {
		log.Printf("sweepd: persisting results to %s", *store)
	}

	// Structured logs (request, sweep and dispatch records) go to stderr
	// next to the protocol lines std log prints below.
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	srv := service.New(engine, *workers)
	srv.MaxPoints = *maxPoints
	srv.Log = logger
	if ps, ok := peerSource.(*remote.PeerSource); ok {
		ps.Metrics = remote.NewPeerMetrics(srv.Registry())
	}
	// One dispatch-metric family shared by every fleet executor, so
	// /metrics breaks dispatches down per worker URL.
	dispatchMetrics := remote.NewMetrics(srv.Registry())
	newExecutor := func(url string) *remote.Executor {
		ex := remote.NewExecutor(url)
		ex.Metrics = dispatchMetrics
		return ex
	}
	srv.WorkerFactory = func(url string) runner.Executor { return newExecutor(url) }
	for _, peer := range strings.Split(*peers, ",") {
		if peer = strings.TrimSpace(peer); peer == "" {
			continue
		}
		peer = strings.TrimRight(peer, "/")
		srv.RegisterWorker(peer, newExecutor(peer), *peerSlots)
		log.Printf("sweepd: registered worker %s", peer)
	}
	hs := &http.Server{Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("sweepd: %v", err)
	}
	// The resolved address line doubles as the port-discovery protocol for
	// scripts that start sweepd with port 0.
	log.Printf("sweepd: listening on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		log.Printf("sweepd: %s received, draining (in-flight points stop at the next task boundary)", got)
	case err := <-errc:
		log.Fatalf("sweepd: serve: %v", err)
	}

	// Drain: reject new submissions, cancel running sweeps, wait for their
	// final state to flush, then close the listener and open connections.
	// Shutdown waits out the /execute requests in flight for coordinators.
	srv.Drain(fmt.Errorf("sweepd: draining on signal"))
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("sweepd: shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("sweepd: serve: %v", err)
	}
	log.Printf("sweepd: drained, exiting")
}

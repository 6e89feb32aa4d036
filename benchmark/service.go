package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/taskrt"
	"repro/internal/workloads/synth"
)

func baseConfig() core.Config { return core.DefaultConfig(taskrt.Software) }

// sweepd is an in-process sweep service on a loopback listener, serving the
// same handler cmd/sweepd mounts.
type sweepd struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	errc chan error
	dir  string // disk store directory, removed on close
}

func startSweepd(o *options, st *runner.Store, dir string) (*sweepd, error) {
	srv := service.New(&runner.Engine{Base: baseConfig(), Store: st, Workers: o.workers}, o.workers)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &sweepd{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		errc: make(chan error, 1), dir: dir}
	go func() { d.errc <- d.hs.Serve(ln) }()
	return d, nil
}

func (d *sweepd) close() {
	d.srv.Drain(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx)
	<-d.errc
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// client is the closed-loop researcher: one keep-alive connection, one sweep
// at a time, each NDJSON stream followed to its end (as `sweep -remote`
// does), speaking only the /v1 API.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, url: url}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// sweepTiming is one sweep's client-side timeline, offsets from the POST.
type sweepTiming struct {
	body        string
	submit      time.Duration // response headers
	first, last time.Duration // first and last NDJSON row
}

type sweepResult struct {
	sweepTiming
	rows []service.Point
	err  error
}

// sweep posts one grid with ?stream=1 and reads the stream to its end.
func (c *client) sweep(body []byte) sweepResult {
	r := sweepResult{sweepTiming: sweepTiming{body: string(body)}}
	start := time.Now()
	resp, err := c.hc.Post(c.url+"/v1/sweeps?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.submit = time.Since(start)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return r
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			now := time.Since(start)
			if len(r.rows) == 0 {
				r.first = now
			}
			r.last = now
			var p service.Point
			if jerr := json.Unmarshal(line, &p); jerr != nil {
				r.err = fmt.Errorf("row %d: %w", len(r.rows), jerr)
				_, _ = io.Copy(io.Discard, br) // keep the connection reusable
				return r
			}
			r.rows = append(r.rows, p)
		}
		if errors.Is(err, io.EOF) {
			return r
		}
		if err != nil {
			r.err = err
			return r
		}
	}
}

// metrics reads the daemon's /metrics exposition.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.hc.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return scrape(string(body))
}

func gridBody(g runner.Grid) []byte {
	req := service.SubmitRequest{Benchmarks: g.Benchmarks, Schedulers: g.Schedulers, Cores: g.Cores, Granularities: g.Granularities}
	for _, k := range g.Runtimes {
		req.Runtimes = append(req.Runtimes, string(k))
	}
	body, _ := json.Marshal(req) // strings and numbers always encode
	return body
}

// recordSweep adds one sweep's spans: the sweep (POST to last row), its
// submit (POST to headers) and its stream (first to last row).
func recordSweep(tr *tracer, op string, start time.Time, t sweepTiming) {
	if tr == nil {
		return
	}
	id := tr.record("sweep", op, 0, start, start.Add(t.last))
	tr.record("service.submit", op, id, start, start.Add(t.submit))
	tr.record("service.stream", op, id, start.Add(t.first), start.Add(t.last))
}

// pointsDigest is a SHA-256 over sorted "key cycles" lines.
func pointsDigest(points map[string]int64) string {
	keys := make([]string, 0, len(points))
	for k := range points {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %d\n", k, points[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setupServers runs set-up setupReps times, keeping the last server and
// closing the others, so setup_s is a median over repetitions.
func setupServers(p *pass, setup func() (*sweepd, error)) (*sweepd, error) {
	var d *sweepd
	for range setupReps {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = setup(); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
	}
	return d, nil
}

// sweepRun is what a traced timed phase leaves for the ladder.
type sweepRun struct {
	sweeps        []sweepTiming
	before, after map[string]float64 // /metrics around the timed phase
}

// runSweeps is the timed phase of a service workload: n sweeps from one
// closed-loop client, a segment every perUnit sweeps. next returns sweep i's
// body and the check its stream must pass; a failed check is a failed op.
// With tr it records each sweep's spans and reads /metrics around the loop.
func runSweeps(p *pass, d *sweepd, tr *tracer, out io.Writer, n, perUnit int,
	next func(i int) ([]byte, func(sweepResult) error)) (sweepRun, error) {
	c := newClient(d.url)
	defer c.close()
	var run sweepRun
	var err error
	if tr != nil {
		if run.before, err = c.metrics(); err != nil {
			return run, err
		}
	}
	before := takeUsage()
	p.beginSegment()
	for i := range n {
		if i > 0 && i%perUnit == 0 {
			p.endSegment()
			p.beginSegment()
		}
		body, check := next(i)
		start := time.Now()
		sr := c.sweep(body)
		p.ops++
		if err := check(sr); err != nil {
			fmt.Fprintf(out, "# sweep %d failed: %v\n", i, err)
			p.failed++
			continue
		}
		p.settle(len(sr.rows), ms(sr.last), ms(sr.first))
		if tr != nil {
			recordSweep(tr, fmt.Sprintf("sweep-%d", i), start, sr.sweepTiming)
			run.sweeps = append(run.sweeps, sr.sweepTiming)
		}
	}
	p.endSegment()
	p.use = takeUsage().since(before)
	if tr != nil {
		run.after, err = c.metrics()
	}
	return run, err
}

// --- service-warm ---

// serviceWarm sends one fixed grid, every point simulated during set-up, so
// each sweep is pure service work: ingress, grid expansion, job keying,
// tenant grants, memory-tier hits and NDJSON encoding.
type serviceWarm struct {
	o    *options
	grid runner.Grid
	body []byte
	jobs []runner.Job
	want map[string]int64 // key -> cycles simulated at set-up
	d    *sweepd
	run  sweepRun
}

// warmSweepsPerUnit sizes the timed phase: a 324-point sweep takes about
// 20 ms on the reference host. At --seconds 20 that is 900 sweeps, so p90
// is the highest percentile with at least ten sweeps beyond it.
const warmSweepsPerUnit = 45

// warmSynthSpecs synthetic specs join warmPaperBenchmarks, the cheapest
// paper benchmarks to simulate, so set-up stays short.
const warmSynthSpecs = 24

var warmPaperBenchmarks = []string{"histogram", "dedup", "ferret"}

// newServiceWarm builds the warm grid: 27 benchmarks under the four runtimes
// and the five schedulers, 12 points each. Sweeps of a few hundred points
// keep one hypervisor stall from dominating a sweep's latency.
func newServiceWarm(o *options) (*serviceWarm, error) {
	rng := rand.New(rand.NewSource(o.seed))
	fams := synth.FamilyNames()
	var benches []string
	for i := range warmSynthSpecs {
		benches = append(benches, fmt.Sprintf("synth:%s:seed=%d", fams[i%len(fams)], rng.Intn(1<<30)+1))
	}
	benches = append(benches, warmPaperBenchmarks...)
	scheds := []string{sched.FIFO, sched.LIFO, sched.Locality, sched.Successor, sched.Age}
	rng.Shuffle(len(scheds), func(i, j int) { scheds[i], scheds[j] = scheds[j], scheds[i] })
	g := runner.Grid{Benchmarks: benches, Runtimes: taskrt.Kinds(), Schedulers: scheds}
	return &serviceWarm{o: o, grid: g, body: gridBody(g)}, nil
}

func (w *serviceWarm) pass(units int, tr *tracer) (*pass, error) {
	w.close()
	p := &pass{}
	d, err := setupServers(p, func() (*sweepd, error) {
		if err := w.grid.Validate(); err != nil {
			return nil, err
		}
		w.jobs = w.grid.Jobs()
		st := runner.NewStore()
		eng := &runner.Engine{Base: baseConfig(), Store: st, Workers: w.o.workers}
		results, err := eng.RunAll(w.jobs)
		if err != nil {
			return nil, err
		}
		w.want = make(map[string]int64, len(w.jobs))
		for i, j := range w.jobs {
			w.want[eng.Key(j)] = results[i].Cycles
		}
		return startSweepd(w.o, st, "")
	})
	if err != nil {
		return nil, err
	}
	w.d = d
	seen := make(map[string]int64, len(w.want))
	w.run, err = runSweeps(p, d, tr, w.o.out, warmSweepsPerUnit*units, warmSweepsPerUnit,
		func(int) ([]byte, func(sweepResult) error) {
			return w.body, func(sr sweepResult) error {
				if err := w.check(sr); err != nil {
					return err
				}
				for _, r := range sr.rows {
					seen[r.Key] = r.Cycles
				}
				return nil
			}
		})
	p.digest = pointsDigest(seen)
	return p, err
}

// check verifies one stream: exactly one error-free row per grid point,
// each carrying the cycles its key simulated to at set-up.
func (w *serviceWarm) check(sr sweepResult) error {
	if sr.err != nil {
		return sr.err
	}
	if len(sr.rows) != len(w.jobs) {
		return fmt.Errorf("%d rows, want %d", len(sr.rows), len(w.jobs))
	}
	got := make([]bool, len(w.jobs))
	for _, r := range sr.rows {
		if r.Row != "" || r.Error != "" || r.Cancelled {
			return fmt.Errorf("row %d: kind %q error %q cancelled %v", r.Index, r.Row, r.Error, r.Cancelled)
		}
		if r.Index < 0 || r.Index >= len(got) || got[r.Index] {
			return fmt.Errorf("row index %d repeated or out of range", r.Index)
		}
		got[r.Index] = true
		if want, ok := w.want[r.Key]; !ok || want != r.Cycles {
			return fmt.Errorf("row %d key %s: cycles %d, set-up simulated %d", r.Index, r.Key, r.Cycles, want)
		}
	}
	return nil
}

func (w *serviceWarm) ladder(l *layers, tr *tracer) error {
	eng := &runner.Engine{Base: baseConfig()}
	distinct := dedup(eng, w.jobs)
	l.set("runner.dedup_ratio", float64(len(distinct))/float64(len(w.jobs)), "ratio")
	if err := l.common(tr, eng, distinct, w.want); err != nil {
		return err
	}
	costs := l.runnerRungs(tr, map[string]runner.Grid{string(w.body): w.grid}, eng)
	if err := l.experimentsRung(tr, warmPaperBenchmarks); err != nil {
		return err
	}
	l.storeCounters(w.run.after, w.run.before, false)
	l.serviceRungs(w.run.sweeps, costs)
	return nil
}

func (w *serviceWarm) close() {
	if w.d != nil {
		w.d.close()
		w.d = nil
	}
}

// --- service-mixed ---

// serviceMixed sends sweeps of fresh and repeated synthetic points against a
// disk-backed store whose memory and disk budgets both evict.
//
// Fresh points come from a fixed pool cut into blocks: block b holds
// mixedBlockSpecs specs, and the mixedBlockSweeps sweeps of block b draw its
// specs in a seed-dependent order. The set of (key, cycles) pairs of a block
// is therefore the same for every seed, and its digest is committed.
type serviceMixed struct {
	o     *options
	d     *sweepd
	grids map[string]runner.Grid // every sweep's grid, by body
	want  map[string]int64       // key -> cycles of its first appearance
	keys  map[string]bool        // keys the timed phase's rows carried
	run   sweepRun
	fs    string
}

const (
	mixedBlockSweeps = 40 // sweeps per block; one block per --seconds unit
	mixedFreshSpecs  = 2  // fresh specs per sweep, each under every runtime
	mixedBlockSpecs  = mixedBlockSweeps * mixedFreshSpecs
	// Result files of these synthetic points are about 14 KB, so the memory
	// tier holds the last four or five sweeps' fresh points and the disk
	// tier about the last 35 sweeps'.
	mixedMemBytes  = 512 << 10
	mixedDiskBytes = 4 << 20
	// The set-up prefill simulates and persists mixedPrefillSweeps sweeps'
	// worth of fresh specs, so every timed sweep has repeats to draw from.
	mixedPrefillSweeps = 16
	mixedPrefillBlock  = 1000
)

// mixedSpec is pool entry i of block b: a synthetic program of about 60
// tasks whose exponential task durations depend on its seed, so every entry
// is a distinct program.
func mixedSpec(b, i int) string {
	fams := synth.FamilyNames()
	return fmt.Sprintf("synth:%s:seed=%d,dist=exp,tasks=60", fams[i%len(fams)], b*mixedBlockSpecs+i+1)
}

// mixedSweep returns the benchmarks of sweep s: mixedFreshSpecs fresh specs,
// then one repeat from the last three sweeps (usually a memory hit) and one
// from 4-30 sweeps back (usually a disk hit) or, one time in four, from this
// sweep (an in-flight or memory hit). history holds each earlier sweep's
// fresh specs, starting with the set-up prefill's.
func mixedSweep(seed int64, s int, history [][]string) []string {
	b, l := s/mixedBlockSweeps, s%mixedBlockSweeps
	perm := rand.New(rand.NewSource(seed*7919 + int64(b))).Perm(mixedBlockSpecs)
	var out []string
	for k := range mixedFreshSpecs {
		out = append(out, mixedSpec(b, perm[l*mixedFreshSpecs+k]))
	}
	rng := rand.New(rand.NewSource(seed*104729 + int64(s)))
	pick := func(lo, hi int) string {
		back := lo + rng.Intn(min(hi, len(history))-lo+1)
		prev := history[len(history)-back]
		return prev[rng.Intn(len(prev))]
	}
	out = append(out, pick(1, 3))
	if rng.Intn(4) == 0 {
		out = append(out, out[rng.Intn(mixedFreshSpecs)])
	} else {
		out = append(out, pick(4, 30))
	}
	return out
}

// mixedPrefill is the fresh-spec history the set-up prefill leaves: pool
// block mixedPrefillBlock, which no timed phase reaches, in sweep-sized
// groups.
func mixedPrefill() [][]string {
	var h [][]string
	for i := range mixedPrefillSweeps {
		var g []string
		for k := range mixedFreshSpecs {
			g = append(g, mixedSpec(mixedPrefillBlock, i*mixedFreshSpecs+k))
		}
		h = append(h, g)
	}
	return h
}

func newServiceMixed(o *options) *serviceMixed { return &serviceMixed{o: o} }

func (w *serviceMixed) pass(units int, tr *tracer) (*pass, error) {
	w.close()
	p := &pass{}
	rep := 0
	runtimes := taskrt.Kinds()
	history := mixedPrefill()
	w.want = make(map[string]int64)
	d, err := setupServers(p, func() (*sweepd, error) {
		rep++
		dir := filepath.Join(w.o.root, buildDir, fmt.Sprintf("mixed-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		st, err := runner.OpenStore(runner.StoreOptions{Dir: dir, MemBytes: mixedMemBytes, DiskBytes: mixedDiskBytes})
		if err != nil {
			return nil, err
		}
		var jobs []runner.Job
		for _, specs := range history {
			jobs = append(jobs, runner.Grid{Benchmarks: specs, Runtimes: runtimes}.Jobs()...)
		}
		eng := &runner.Engine{Base: baseConfig(), Store: st, Workers: w.o.workers}
		results, err := eng.RunAll(jobs)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		for i, j := range jobs {
			w.want[eng.Key(j)] = results[i].Cycles
		}
		d, err := startSweepd(w.o, st, dir)
		if err != nil {
			os.RemoveAll(dir)
		}
		return d, err
	})
	if err != nil {
		return nil, err
	}
	w.d = d
	w.fs = fsType(d.dir)
	w.grids = make(map[string]runner.Grid)
	w.keys = make(map[string]bool)
	blockPoints := make([]map[string]int64, units)
	blockFailed := make([]bool, units)
	w.run, err = runSweeps(p, d, tr, w.o.out, mixedBlockSweeps*units, mixedBlockSweeps,
		func(s int) ([]byte, func(sweepResult) error) {
			benches := mixedSweep(w.o.seed, s, history)
			history = append(history, benches[:mixedFreshSpecs])
			g := runner.Grid{Benchmarks: benches, Runtimes: runtimes}
			body := gridBody(g)
			w.grids[string(body)] = g
			b := s / mixedBlockSweeps
			if blockPoints[b] == nil {
				blockPoints[b] = make(map[string]int64)
			}
			return body, func(sr sweepResult) error {
				err := w.check(sr, g, blockPoints[b])
				if err != nil {
					blockFailed[b] = true
				}
				return err
			}
		})
	if err != nil {
		return nil, err
	}
	// A block whose digest differs from the committed one fails all of its
	// sweeps: the digest cannot say which one carried the wrong result.
	var digests []string
	for b, pts := range blockPoints {
		got := pointsDigest(pts)
		digests = append(digests, got)
		if !blockFailed[b] && got != w.o.ref.Mixed[b] {
			fmt.Fprintf(w.o.out, "# block %d: digest %s, want %s\n", b, got, w.o.ref.Mixed[b])
			p.failed += mixedBlockSweeps
		}
	}
	p.digest = strings.Join(digests, ",")
	return p, nil
}

// check verifies one stream: one error-free row per grid point, in the
// grid's order of benchmarks and runtimes, and every key's cycles equal to
// its first appearance in the run. Fresh points join the block's digest.
func (w *serviceMixed) check(sr sweepResult, g runner.Grid, fresh map[string]int64) error {
	if sr.err != nil {
		return sr.err
	}
	jobs := g.Jobs()
	if len(sr.rows) != len(jobs) {
		return fmt.Errorf("%d rows, want %d", len(sr.rows), len(jobs))
	}
	got := make([]bool, len(jobs))
	for _, r := range sr.rows {
		if r.Row != "" || r.Error != "" || r.Cancelled || r.Cycles <= 0 {
			return fmt.Errorf("row %d: kind %q error %q cancelled %v cycles %d", r.Index, r.Row, r.Error, r.Cancelled, r.Cycles)
		}
		if r.Index < 0 || r.Index >= len(got) || got[r.Index] {
			return fmt.Errorf("row index %d repeated or out of range", r.Index)
		}
		got[r.Index] = true
		j := jobs[r.Index]
		if r.Benchmark != j.Benchmark || r.Runtime != string(j.Runtime) {
			return fmt.Errorf("row %d is %s/%s, want %s/%s", r.Index, r.Benchmark, r.Runtime, j.Benchmark, j.Runtime)
		}
		if first, ok := w.want[r.Key]; ok && first != r.Cycles {
			return fmt.Errorf("row %d key %s: cycles %d, first appearance %d", r.Index, r.Key, r.Cycles, first)
		}
		w.want[r.Key] = r.Cycles
		w.keys[r.Key] = true
		if r.Index < mixedFreshSpecs*len(g.Runtimes) {
			fresh[r.Key] = r.Cycles
		}
	}
	return nil
}

func (w *serviceMixed) ladder(l *layers, tr *tracer) error {
	eng := &runner.Engine{Base: baseConfig()}
	if rows := len(w.run.sweeps) * (mixedFreshSpecs + 2) * len(taskrt.Kinds()); rows > 0 {
		l.set("runner.dedup_ratio", float64(len(w.keys))/float64(rows), "ratio")
	}
	var block0 []runner.Job
	for i := range mixedBlockSpecs {
		block0 = append(block0, runner.Grid{Benchmarks: []string{mixedSpec(0, i)}}.Jobs()...)
	}
	if err := l.common(tr, eng, block0, w.want); err != nil {
		return err
	}
	costs := l.runnerRungs(tr, w.grids, eng)
	if err := l.experimentsRung(tr, []string{mixedSpec(0, 0), mixedSpec(0, 1)}); err != nil {
		return err
	}
	l.storeCounters(w.run.after, w.run.before, false)
	l.serviceRungs(w.run.sweeps, costs)
	return nil
}

func (w *serviceMixed) close() {
	if w.d != nil {
		w.d.close()
		w.d = nil
	}
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/taskrt"
	"repro/internal/workloads"
)

// paperCold regenerates Figures 12 and 13 for all nine benchmarks at the
// paper's 32-core configuration from an empty in-memory store, the way
// cmd/experiments does: JobsFor -> Prewarm -> the two drivers -> rendered
// tables. Its inputs are the paper's and do not depend on the seed.
type paperCold struct {
	o    *options
	exps []experiments.Experiment
	// last is the newest regeneration's options; its warm cache serves the
	// ladder's experiments, runner and service rungs.
	last experiments.Options
	reg  *obs.Registry // store metrics of the traced pass
	jobs []runner.Job  // enumerated points, duplicates included
}

func newPaperCold(o *options) (*paperCold, error) {
	exps, err := figures()
	if err != nil {
		return nil, err
	}
	return &paperCold{o: o, exps: exps}, nil
}

// figures returns the Fig. 12 and Fig. 13 experiments.
func figures() ([]experiments.Experiment, error) {
	var exps []experiments.Experiment
	for _, id := range []string{"fig12", "fig13"} {
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// regensFor sizes the timed phase: one regeneration takes about 9 s with two
// workers on the reference host.
func regensFor(seconds int) int { return max(1, (seconds+4)/9) }

func (w *paperCold) pass(units int, tr *tracer) (*pass, error) {
	p := &pass{}
	var jobs []runner.Job
	for range setupReps {
		start := time.Now()
		opt := experiments.DefaultOptions()
		js, err := experiments.JobsFor(opt, w.exps...)
		if err != nil {
			return nil, err
		}
		jobs = js
		p.setup = append(p.setup, time.Since(start).Seconds())
	}
	w.jobs = jobs

	before := takeUsage()
	for r := range regensFor(units) {
		// Start each regeneration from a collected heap, as a fresh
		// cmd/experiments process would, so peak RSS is one regeneration's.
		w.last = experiments.Options{}
		runtime.GC()
		opt := experiments.DefaultOptions()
		opt.Workers = w.o.workers
		if tr != nil {
			w.reg = obs.NewRegistry()
			opt.Cache.Metrics = runner.NewStoreMetrics(w.reg)
		}
		op := fmt.Sprintf("regen-%d", r)
		p.beginSegment()
		span := tr.open("regen", op, 0)
		start := time.Now()
		tables, first, err := w.regenerate(opt, tr, op, span)
		end := time.Now()
		tr.finish(span)
		p.ops++
		if err != nil {
			fmt.Fprintf(w.o.out, "# %s failed: %v\n", op, err)
			p.failed++
			p.endSegment()
			continue
		}
		p.settle(opt.Cache.Len(), ms(end.Sub(start)), ms(first.Sub(start)))
		p.endSegment()
		digest := sha256Hex(tables)
		cycles := cyclesSum(opt.Cache)
		p.digest = fmt.Sprintf("%s/%d", digest, cycles)
		if digest != w.o.ref.PaperCold.TablesSHA256 || cycles != w.o.ref.PaperCold.CyclesSum {
			fmt.Fprintf(w.o.out, "# %s: tables sha256 %s cycles %d, want %s cycles %d\n",
				op, digest, cycles, w.o.ref.PaperCold.TablesSHA256, w.o.ref.PaperCold.CyclesSum)
			p.failed++
		}
		w.last = opt
	}
	p.use = takeUsage().since(before)
	return p, nil
}

// regenerate runs one full regeneration and returns the rendered tables,
// byte-for-byte what `experiments -experiment fig12` followed by
// `-experiment fig13` prints, and when the first figure was rendered.
func (w *paperCold) regenerate(opt experiments.Options, tr *tracer, op string, parent int) (string, time.Time, error) {
	start := time.Now()
	if err := experiments.PrewarmContext(context.Background(), opt, w.jobs); err != nil {
		return "", time.Time{}, err
	}
	tr.record("experiments.prewarm", op, parent, start, time.Now())
	return renderFigures(opt, w.exps, tr, op, parent)
}

// renderFigures runs the figure drivers over the options' cache and renders
// their tables in cmd/experiments' text format. It also returns when the
// first figure's tables were complete.
func renderFigures(opt experiments.Options, exps []experiments.Experiment, tr *tracer, op string, parent int) (string, time.Time, error) {
	var b strings.Builder
	var first time.Time
	for _, e := range exps {
		start := time.Now()
		tables, err := e.Run(opt)
		if err != nil {
			return "", time.Time{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(&b, "\n######## %s — %s\n\n", e.ID, e.Title)
		for _, t := range tables {
			fmt.Fprintln(&b, t.String())
		}
		end := time.Now()
		if first.IsZero() {
			first = end
		}
		tr.record("experiments."+e.ID, op, parent, start, end)
	}
	return b.String(), first, nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func cyclesSum(st *runner.Store) int64 {
	var sum int64
	for _, k := range st.Keys() {
		if res, ok := st.Get(k); ok {
			sum += res.Cycles
		}
	}
	return sum
}

// paperGrid is the Fig. 12 + Fig. 13 point set as a sweep grid: every
// benchmark under every runtime and the five scheduler columns (hardware
// runtimes collapse to one point), 108 distinct points.
func paperGrid() runner.Grid {
	return runner.Grid{
		Benchmarks: workloads.Names(),
		Runtimes:   taskrt.Kinds(),
		Schedulers: []string{sched.FIFO, sched.LIFO, sched.Locality, sched.Successor, sched.Age},
	}
}

func (w *paperCold) ladder(l *layers, tr *tracer) error {
	opt := w.last
	if opt.Cache == nil {
		return fmt.Errorf("ladder: the traced regeneration failed")
	}
	eng := &runner.Engine{Base: baseConfig(), Workers: 1}
	distinct := dedup(eng, w.jobs)
	want := make(map[string]int64, len(distinct))
	for _, j := range distinct {
		k := eng.Key(j)
		res, ok := opt.Cache.Get(k)
		if !ok {
			return fmt.Errorf("ladder: point %s missing from the regenerated store", j.Desc())
		}
		want[k] = res.Cycles
	}
	l.set("runner.dedup_ratio", float64(len(distinct))/float64(len(w.jobs)), "ratio")
	if err := l.common(tr, eng, distinct, want); err != nil {
		return err
	}
	body := gridBody(paperGrid())
	costs := l.runnerRungs(tr, map[string]runner.Grid{string(body): paperGrid()}, eng)

	start := time.Now()
	if _, _, err := renderFigures(opt, w.exps, tr, "ladder", 0); err != nil {
		return err
	}
	l.set("experiments.tables_ms", ms(time.Since(start)), "ms")

	// Store counters of the traced regeneration. Prewarm builds its own
	// engine without instruments, so executions are the store's misses.
	rec := httptest.NewRecorder()
	obs.Handler(w.reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	snap, err := scrape(rec.Body.String())
	if err != nil {
		return err
	}
	l.storeCounters(snap, nil, true)

	// The service rung: the paper grid submitted to an in-process sweepd
	// over the warm store, so every point is a memory hit.
	d, err := startSweepd(w.o, opt.Cache, "")
	if err != nil {
		return err
	}
	defer d.close()
	c := newClient(d.url)
	defer c.close()
	var sweeps []sweepTiming
	for i := range 20 {
		sr := c.sweep(body)
		if sr.err != nil || len(sr.rows) != len(distinct) {
			return fmt.Errorf("ladder: paper grid sweep %d: %v (%d rows)", i, sr.err, len(sr.rows))
		}
		for _, r := range sr.rows {
			if want[r.Key] != r.Cycles || r.Error != "" {
				return fmt.Errorf("ladder: paper grid row %s: cycles %d, want %d %s", r.Key, r.Cycles, want[r.Key], r.Error)
			}
		}
		sweeps = append(sweeps, sr.sweepTiming)
	}
	l.serviceRungs(sweeps, costs)
	return nil
}

func (w *paperCold) close() {}

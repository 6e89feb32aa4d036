package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dmu"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/taskrt"
	"repro/internal/workloads"
)

// layers collects the per-layer metrics of a traced run. The ladder's rungs
// call one module's public functions at a time on the workload's own points,
// so each layer gets its own number.
type layers struct {
	o *options
	m map[string]metric
	// mismatches counts ladder re-simulations whose cycles differ from the
	// timed pass's result for the same key.
	mismatches int
	checked    int
}

func (l *layers) set(name string, v float64, unit string) { l.m[name] = metric{Value: v, Unit: unit} }

// dedup returns the jobs with distinct keys, in first-occurrence order.
func dedup(eng *runner.Engine, jobs []runner.Job) []runner.Job {
	seen := make(map[string]bool, len(jobs))
	var out []runner.Job
	for _, j := range jobs {
		if k := eng.Key(j); !seen[k] {
			seen[k] = true
			out = append(out, j)
		}
	}
	return out
}

// common runs the workloads, dmu, taskrt and sim rungs over the given
// points. Each point's program is generated (workloads), its dependence
// stream replayed through a standalone DMU when its runtime has one (dmu),
// and it is simulated with core.Run on one worker (taskrt); the simulated
// cycles must equal want[key], the timed pass's result.
func (l *layers) common(tr *tracer, eng *runner.Engine, jobs []runner.Job, want map[string]int64) error {
	type point struct {
		key  string
		cfg  core.Config
		prog *task.Program
	}
	var pts []point
	var gen time.Duration
	tasks := 0
	for _, j := range jobs {
		key := eng.Key(j)
		cfg := j.Config(eng.Base)
		start := time.Now()
		b, err := workloads.ByName(j.Benchmark)
		if err != nil {
			return err
		}
		var prog *task.Program
		if j.Granularity == 0 {
			prog = b.GenerateOptimal(cfg.Runtime.UsesDMU(), cfg.Machine)
		} else {
			prog = b.Generate(j.Granularity, cfg.Machine)
		}
		end := time.Now()
		tr.record("workloads.generate", key, 0, start, end)
		gen += end.Sub(start)
		tasks += prog.NumTasks()
		pts = append(pts, point{key, cfg, prog})
	}
	l.set("workloads.generate_ms", ms(gen), "ms")
	l.set("workloads.tasks", float64(tasks), "count")

	var replay time.Duration
	ops := 0
	for _, p := range pts {
		if !p.cfg.Runtime.UsesDMU() {
			continue
		}
		start := time.Now()
		n, err := replayDMU(p.prog, p.cfg.DMU)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("dmu replay %s: %w", p.prog.Name, err)
		}
		tr.record("dmu.replay", p.key, 0, start, end)
		replay += end.Sub(start)
		ops += n
	}
	l.set("dmu.replay_ms", ms(replay), "ms")
	l.set("dmu.ops", float64(ops), "count")
	l.set("dmu.ns_per_op", float64(replay.Nanoseconds())/float64(max(1, ops)), "ns")

	byKind := make(map[taskrt.Kind]time.Duration)
	var run time.Duration
	var simTasks, cycles int64
	for _, p := range pts {
		start := time.Now()
		res, err := core.Run(p.prog, p.cfg)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("taskrt run %s: %w", p.prog.Name, err)
		}
		tr.record("taskrt.run", p.key, 0, start, end)
		run += end.Sub(start)
		byKind[p.cfg.Runtime] += end.Sub(start)
		simTasks += int64(res.TasksExecuted)
		cycles += res.Cycles
		l.checked++
		if w, ok := want[p.key]; !ok || w != res.Cycles {
			fmt.Fprintf(l.o.out, "# ladder: %s simulated %d cycles, the timed pass %d\n", p.key, res.Cycles, w)
			l.mismatches++
		}
	}
	l.set("taskrt.run_ms", ms(run), "ms")
	for _, k := range taskrt.Kinds() {
		l.set("taskrt.run_ms."+string(k), ms(byKind[k]), "ms")
	}
	l.set("taskrt.sim_tasks", float64(simTasks), "count")
	l.set("taskrt.host_us_per_task", float64(run.Microseconds())/float64(max(1, simTasks)), "us")
	l.set("taskrt.sim_cycles_per_host_s", float64(cycles)/max(run.Seconds(), 1e-9), "1/s")

	start := time.Now()
	h, err := handoffNS()
	if err != nil {
		return err
	}
	tr.record("sim.handoff", "", 0, start, time.Now())
	l.set("sim.handoff_ns", h, "ns")
	return nil
}

// handoffNS times one Proc.Wait round trip (engine to process and back) on a
// standalone engine with 32 processes: the median of five runs of 32x500
// one-cycle waits.
func handoffNS() (float64, error) {
	const procs, waits = 32, 500
	var samples []float64
	for range 5 {
		eng := sim.NewEngine()
		for range procs {
			eng.Spawn("p", func(p *sim.Proc) {
				for range waits {
					p.Wait(1)
				}
			})
		}
		start := time.Now()
		if _, err := eng.Run(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/(procs*waits))
	}
	return median(samples), nil
}

// replayDMU feeds a program's dependence stream through a standalone DMU in
// creation order, retiring ready tasks whenever a structure is full and
// draining at the end. It returns the number of DMU operations issued.
func replayDMU(prog *task.Program, cfg dmu.Config) (int, error) {
	unit := dmu.New(cfg)
	ops := 0
	retire := func() error {
		rt, _, ok := unit.GetReadyTask()
		ops++
		if !ok {
			return errors.New("DMU full with an empty ready queue")
		}
		ops++
		_, err := unit.FinishTask(rt.DescAddr)
		return err
	}
	for _, s := range prog.Tasks() {
		d := 0x7000_0000 + uint64(s.ID)*320
		for !unit.CanCreateTask(d) {
			if err := retire(); err != nil {
				return ops, err
			}
		}
		if _, err := unit.CreateTask(d); err != nil {
			return ops, err
		}
		ops++
		for _, dep := range s.Deps {
			for !unit.CanAddDependence(d, dep.Addr, dep.Size, dep.Dir) {
				if err := retire(); err != nil {
					return ops, err
				}
			}
			if _, err := unit.AddDependence(d, dep.Addr, dep.Size, dep.Dir); err != nil {
				return ops, err
			}
			ops++
		}
		if _, err := unit.SubmitTask(d); err != nil {
			return ops, err
		}
		ops++
	}
	for !unit.Quiescent() {
		if err := retire(); err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// runnerRungs times, for every distinct submitted grid, Grid.Validate+Jobs,
// Engine.Key on each job and Store.Get on a warm memory tier holding every
// key (medians of five repetitions). It returns each grid's summed rung
// cost in milliseconds, by request body.
func (l *layers) runnerRungs(tr *tracer, grids map[string]runner.Grid, eng *runner.Engine) map[string]float64 {
	costs := make(map[string]float64, len(grids))
	var gridSum, keySum, hitSum time.Duration
	nGrids, keys := 0, 0
	placeholder := &core.Result{}
	for body, g := range grids {
		var gridT, keyT, hitT []float64
		var jobs []runner.Job
		var ks []string
		for range 5 {
			start := time.Now()
			if err := g.Validate(); err == nil {
				jobs = g.Jobs()
			}
			gridT = append(gridT, float64(time.Since(start)))
			start = time.Now()
			ks = ks[:0]
			for _, j := range jobs {
				ks = append(ks, eng.Key(j))
			}
			keyT = append(keyT, float64(time.Since(start)))
			st := runner.NewStore()
			for _, k := range ks {
				_ = st.Put(k, placeholder) // memory-only: nothing to persist, cannot fail
			}
			start = time.Now()
			for _, k := range ks {
				st.Get(k)
			}
			hitT = append(hitT, float64(time.Since(start)))
		}
		gd, kd, hd := time.Duration(median(gridT)), time.Duration(median(keyT)), time.Duration(median(hitT))
		now := time.Now()
		tr.record("runner.grid", "", 0, now.Add(-gd), now)
		tr.record("runner.key", "", 0, now.Add(-kd), now)
		tr.record("runner.store_hit", "", 0, now.Add(-hd), now)
		costs[body] = ms(gd + kd + hd)
		gridSum += gd
		keySum += kd
		hitSum += hd
		nGrids++
		keys += len(jobs)
	}
	l.set("runner.grid_us", float64(gridSum.Nanoseconds())/1e3/float64(max(1, nGrids)), "us")
	l.set("runner.key_us", float64(keySum.Nanoseconds())/1e3/float64(max(1, keys)), "us")
	l.set("runner.store_hit_us", float64(hitSum.Nanoseconds())/1e3/float64(max(1, keys)), "us")
	return costs
}

// serviceRungs summarizes the client-side timelines of the traced sweeps.
// Self time is the sweep's latency minus its grid's runner rung costs.
func (l *layers) serviceRungs(sweeps []sweepTiming, costs map[string]float64) {
	var submit, first, stream, self []float64
	for _, s := range sweeps {
		submit = append(submit, ms(s.submit))
		first = append(first, ms(s.first))
		stream = append(stream, ms(s.last-s.first))
		self = append(self, ms(s.last)-costs[s.body])
	}
	l.set("service.submit_ms_p50", median(submit), "ms")
	l.set("service.first_row_ms_p50", median(first), "ms")
	l.set("service.stream_ms_p50", median(stream), "ms")
	l.set("service.self_ms_p50", median(self), "ms")
}

// storeCounters turns before/after /metrics snapshots into the runner's
// store and execution metrics. A nil before means counters started at zero.
// engineFromStore derives executions from store misses, for engines built
// without instruments.
func (l *layers) storeCounters(after, before map[string]float64, engineFromStore bool) {
	d := func(series string) float64 { return after[series] - before[series] }
	mean := func(hist string) float64 {
		if n := d(hist + "_count"); n > 0 {
			return d(hist+"_sum") / n
		}
		return 0
	}
	mem, disk := d(`store_hits_total{source="mem"}`), d(`store_hits_total{source="disk"}`)
	inflight, peer := d(`store_hits_total{source="inflight"}`), d(`store_hits_total{source="peer"}`)
	misses := d("store_misses_total")
	l.set("runner.store_hits_mem", mem, "count")
	l.set("runner.store_hits_disk", disk, "count")
	l.set("runner.store_hits_inflight", inflight, "count")
	l.set("runner.store_misses", misses, "count")
	hits := mem + disk + inflight + peer
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	l.set("runner.store_hit_ratio", ratio, "ratio")
	l.set("runner.store_evictions_mem", d("store_mem_evictions_total"), "count")
	l.set("runner.store_evictions_disk", d("store_disk_evictions_total"), "count")
	l.set("runner.store_hit_us_mean", 1e6*mean("store_hit_seconds"), "us")
	missMS := 1e3 * mean("store_miss_seconds")
	l.set("runner.store_miss_ms_mean", missMS, "ms")
	execs, execMS := d("runner_execs_total"), 1e3*mean("runner_exec_seconds")
	if engineFromStore {
		execs, execMS = misses, missMS
	}
	l.set("runner.execs", execs, "count")
	l.set("runner.exec_ms_mean", execMS, "ms")
	persist := 0.0
	if execs > 0 {
		persist = missMS - execMS
	}
	l.set("runner.persist_ms_mean", persist, "ms")
	l.set("runner.store_persist_failures", d("store_persist_failures_total"), "count")
	l.set("runner.store_quarantines", d("store_quarantines_total"), "count")
}

// scrape parses Prometheus text exposition into series -> value.
func scrape(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// experimentsRung times the Fig. 12 and Fig. 13 drivers rendering over a
// store prewarmed (untimed) with the given benchmarks' points.
func (l *layers) experimentsRung(tr *tracer, benchmarks []string) error {
	exps, err := figures()
	if err != nil {
		return err
	}
	opt := experiments.DefaultOptions()
	opt.Benchmarks = benchmarks
	opt.Workers = l.o.workers
	jobs, err := experiments.JobsFor(opt, exps...)
	if err != nil {
		return err
	}
	if err := experiments.Prewarm(opt, jobs); err != nil {
		return err
	}
	start := time.Now()
	if _, _, err := renderFigures(opt, exps, tr, "ladder", 0); err != nil {
		return err
	}
	l.set("experiments.tables_ms", ms(time.Since(start)), "ms")
	return nil
}

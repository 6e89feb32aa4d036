package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dmu"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/taskrt"
	"repro/internal/workloads"
)

// aliasSensitiveBenchmarks are the benchmarks Figure 7 shows individually
// (the others reach full performance with 512 entries already).
var aliasSensitiveBenchmarks = map[string]bool{
	"cholesky": true, "ferret": true, "histogram": true, "lu": true, "qr": true,
}

// indexBitBenchmarks are the benchmarks Figure 11 evaluates.
var indexBitBenchmarks = map[string]bool{
	"blackscholes": true, "cholesky": true, "fluidanimate": true, "histogram": true, "qr": true,
}

// tdmSchedulerColumns is the column order of Figure 12.
var tdmSchedulerColumns = []string{sched.FIFO, sched.LIFO, sched.Locality, sched.Successor, sched.Age}

// Sweep dimensions shared between the drivers and the points enumerations in
// points.go (single source of truth, so prewarm coverage cannot drift).
var (
	fig7Sizes       = []int{512, 1024, 2048, 4096}
	fig8Sizes       = []int{128, 256, 512, 1024, 2048}
	fig9Latencies   = []int{1, 4, 16}
	fig11StaticBits = []uint{0, 4, 8, 12, 16}
)

// --- Job constructors ---
//
// Each figure's simulation points are built here, as runner jobs, and used
// both by the table-assembling drivers below and by the points enumerations
// in points.go. Jobs are content-addressed, so points shared between figures
// (for example the software/FIFO baseline) simulate exactly once per cache.

// baseJob is a benchmark under a runtime and scheduler with the unmodified
// base configuration.
func baseJob(b *workloads.Benchmark, kind taskrt.Kind, scheduler string) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: kind, Scheduler: scheduler, Label: "base"}
}

// fig6Job is a software-runtime run at an explicit granularity.
func fig6Job(b *workloads.Benchmark, gran int64) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: taskrt.Software, Scheduler: sched.FIFO,
		Granularity: gran, Label: fmt.Sprintf("gran=%d", gran)}
}

// fig7EnlargeLists removes list-array pressure so Figures 7 isolates the
// alias tables.
func fig7EnlargeLists(cfg *core.Config) {
	cfg.DMU.SLAEntries, cfg.DMU.DLAEntries, cfg.DMU.RLAEntries = 16384, 16384, 16384
}

// fig7IdealJob is the idealized DMU with effectively unlimited alias entries
// that Figure 7 normalizes against.
func fig7IdealJob(b *workloads.Benchmark) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: taskrt.TDM, Scheduler: sched.FIFO,
		Label: "ideal-alias", Mutate: func(cfg *core.Config) {
			fig7EnlargeLists(cfg)
			cfg.DMU.TATEntries, cfg.DMU.DATEntries = 32768, 32768
			cfg.DMU.ReadyQueueEntries = 32768
		}}
}

// fig7SizeJob is one TAT/DAT sizing point of the Figure 7 sweep.
func fig7SizeJob(b *workloads.Benchmark, tat, dat int) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: taskrt.TDM, Scheduler: sched.FIFO,
		Label: fmt.Sprintf("tat=%d dat=%d", tat, dat), Mutate: func(cfg *core.Config) {
			fig7EnlargeLists(cfg)
			cfg.DMU.TATEntries, cfg.DMU.DATEntries = tat, dat
			cfg.DMU.ReadyQueueEntries = tat
		}}
}

// fig8IdealJob is the idealized DMU with effectively unlimited list arrays
// that Figure 8 normalizes against.
func fig8IdealJob(b *workloads.Benchmark) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: taskrt.TDM, Scheduler: sched.FIFO,
		Label: "ideal-lists", Mutate: fig7EnlargeLists}
}

// fig8SizeJob is one list-array sizing point of the Figure 8 sweep.
func fig8SizeJob(b *workloads.Benchmark, size int) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: taskrt.TDM, Scheduler: sched.FIFO,
		Label: fmt.Sprintf("la=%d", size), Mutate: func(cfg *core.Config) {
			cfg.DMU.SLAEntries, cfg.DMU.DLAEntries, cfg.DMU.RLAEntries = size, size, size
		}}
}

// fig9LatJob is one DMU access-latency point of the Figure 9 sweep
// (latency 0 is the normalization baseline).
func fig9LatJob(b *workloads.Benchmark, lat int) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: taskrt.TDM, Scheduler: sched.FIFO,
		Label: fmt.Sprintf("lat=%d", lat), Mutate: func(cfg *core.Config) {
			cfg.DMU.AccessLatency = lat
		}}
}

// fig11StaticJob is a TDM run with a static DAT index-bit selection.
func fig11StaticJob(b *workloads.Benchmark, bit uint) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: taskrt.TDM, Scheduler: sched.FIFO,
		Label: fmt.Sprintf("index=static%d", bit), Mutate: func(cfg *core.Config) {
			cfg.DMU.DATIndex = dmu.StaticIndex(bit)
		}}
}

// extraCoreJob is the software runtime with one core added to the base
// machine (Section VI-C).
func extraCoreJob(b *workloads.Benchmark) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: taskrt.Software, Scheduler: sched.FIFO,
		Label: "extra-core", Mutate: func(cfg *core.Config) {
			cfg.Machine = cfg.Machine.WithCores(cfg.Machine.Cores + 1)
		}}
}

// Fig2Breakdown reproduces Figure 2: the execution-time breakdown
// (DEPS/SCHED/EXEC/IDLE) of the master thread and of the worker threads under
// the pure software runtime with a FIFO scheduler.
func Fig2Breakdown(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 2: execution time breakdown, software runtime (percent of time)",
		"benchmark", "thread", "DEPS", "SCHED", "EXEC", "IDLE")
	var masterAgg, workerAgg []stats.Breakdown
	for _, b := range benches {
		res, err := opt.run(baseJob(b, taskrt.Software, sched.FIFO))
		if err != nil {
			return nil, err
		}
		addRow := func(thread string, bd stats.Breakdown) {
			t.AddRow(b.Short, thread,
				stats.Percent(bd.Fraction(stats.Deps)),
				stats.Percent(bd.Fraction(stats.Sched)),
				stats.Percent(bd.Fraction(stats.Exec)),
				stats.Percent(bd.Fraction(stats.Idle)))
		}
		addRow("master", res.Master)
		addRow("workers", res.Workers)
		masterAgg = append(masterAgg, res.Master)
		workerAgg = append(workerAgg, res.Workers)
	}
	addAvg := func(thread string, bds []stats.Breakdown) {
		var deps, schd, exec, idle []float64
		for _, bd := range bds {
			deps = append(deps, bd.Fraction(stats.Deps))
			schd = append(schd, bd.Fraction(stats.Sched))
			exec = append(exec, bd.Fraction(stats.Exec))
			idle = append(idle, bd.Fraction(stats.Idle))
		}
		t.AddRow("AVG", thread,
			stats.Percent(stats.Mean(deps)), stats.Percent(stats.Mean(schd)),
			stats.Percent(stats.Mean(exec)), stats.Percent(stats.Mean(idle)))
	}
	addAvg("master", masterAgg)
	addAvg("workers", workerAgg)
	return []*stats.Table{t}, nil
}

// Fig6Granularity reproduces Figure 6: execution time of the software runtime
// across task granularities, normalized to the best granularity of each
// benchmark.
func Fig6Granularity(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 6: execution time vs task granularity (software runtime, normalized to best)",
		"benchmark", "granularity", "unit", "tasks", "norm. time")
	for _, b := range benches {
		if b.Pipeline {
			continue
		}
		type point struct {
			gran   int64
			cycles int64
			tasks  int
		}
		var points []point
		for _, g := range b.Sweep {
			res, err := opt.run(fig6Job(b, g))
			if err != nil {
				return nil, err
			}
			points = append(points, point{gran: g, cycles: res.Cycles, tasks: res.TasksExecuted})
		}
		best := points[0].cycles
		for _, p := range points {
			if p.cycles < best {
				best = p.cycles
			}
		}
		for _, p := range points {
			t.AddRowValues(b.Short, p.gran, b.Unit, p.tasks, float64(p.cycles)/float64(best))
		}
	}
	return []*stats.Table{t}, nil
}

// Fig7AliasSizing reproduces Figure 7: TDM performance while sweeping the TAT
// and DAT sizes, normalized to an idealized DMU with effectively unlimited
// entries and the same latency.
func Fig7AliasSizing(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	sizes := fig7Sizes
	t := stats.NewTable("Figure 7: performance vs TAT/DAT entries (TDM, normalized to ideal DMU)",
		append([]string{"benchmark", "TAT"}, sizeColumns("DAT", sizes)...)...)
	perSize := make(map[[2]int][]float64)
	for _, b := range benches {
		if !aliasSensitiveBenchmarks[b.Name] {
			continue
		}
		ideal, err := opt.run(fig7IdealJob(b))
		if err != nil {
			return nil, err
		}
		for _, tat := range sizes {
			row := []any{b.Short, tat}
			for _, dat := range sizes {
				res, err := opt.run(fig7SizeJob(b, tat, dat))
				if err != nil {
					return nil, err
				}
				perf := float64(ideal.Cycles) / float64(res.Cycles)
				perSize[[2]int{tat, dat}] = append(perSize[[2]int{tat, dat}], perf)
				row = append(row, perf)
			}
			t.AddRowValues(row...)
		}
	}
	for _, tat := range sizes {
		row := []any{"AVG", tat}
		for _, dat := range sizes {
			row = append(row, stats.GeoMean(perSize[[2]int{tat, dat}]))
		}
		t.AddRowValues(row...)
	}
	return []*stats.Table{t}, nil
}

// Fig8ListArrays reproduces Figure 8: TDM performance while sweeping the size
// of the successor, dependence and reader list arrays (all three together),
// normalized to an idealized DMU. The paper sweeps the three arrays
// independently; EXPERIMENTS.md discusses the simplification.
func Fig8ListArrays(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	sizes := fig8Sizes
	t := stats.NewTable("Figure 8: performance vs list array entries (TDM, normalized to ideal DMU)",
		append([]string{"benchmark"}, sizeColumns("LA", sizes)...)...)
	perSize := make(map[int][]float64)
	for _, b := range benches {
		if !aliasSensitiveBenchmarks[b.Name] {
			continue
		}
		ideal, err := opt.run(fig8IdealJob(b))
		if err != nil {
			return nil, err
		}
		row := []any{b.Short}
		for _, size := range sizes {
			res, err := opt.run(fig8SizeJob(b, size))
			if err != nil {
				return nil, err
			}
			perf := float64(ideal.Cycles) / float64(res.Cycles)
			perSize[size] = append(perSize[size], perf)
			row = append(row, perf)
		}
		t.AddRowValues(row...)
	}
	avg := []any{"AVG"}
	for _, size := range sizes {
		avg = append(avg, stats.GeoMean(perSize[size]))
	}
	t.AddRowValues(avg...)
	return []*stats.Table{t}, nil
}

// Fig9Latency reproduces Figure 9: TDM performance when the access time of
// every DMU structure grows from 1 to 16 cycles, normalized to a DMU with
// zero-latency structures.
func Fig9Latency(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	latencies := fig9Latencies
	t := stats.NewTable("Figure 9: performance vs DMU access latency (normalized to zero-latency DMU)",
		append([]string{"benchmark"}, sizeColumns("lat", latencies)...)...)
	perLat := make(map[int][]float64)
	for _, b := range benches {
		ideal, err := opt.run(fig9LatJob(b, 0))
		if err != nil {
			return nil, err
		}
		row := []any{b.Short}
		for _, lat := range latencies {
			res, err := opt.run(fig9LatJob(b, lat))
			if err != nil {
				return nil, err
			}
			perf := float64(ideal.Cycles) / float64(res.Cycles)
			perLat[lat] = append(perLat[lat], perf)
			row = append(row, perf)
		}
		t.AddRowValues(row...)
	}
	avg := []any{"AVG"}
	for _, lat := range latencies {
		avg = append(avg, stats.GeoMean(perLat[lat]))
	}
	t.AddRowValues(avg...)
	return []*stats.Table{t}, nil
}

// Fig10CreationTime reproduces Figure 10: the share of execution time the
// master spends creating tasks and managing dependences, with the software
// runtime and with TDM.
func Fig10CreationTime(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 10: master task-creation time (percent of execution time)",
		"benchmark", "software", "TDM", "reduction")
	var swF, tdmF []float64
	for _, b := range benches {
		sw, err := opt.run(baseJob(b, taskrt.Software, sched.FIFO))
		if err != nil {
			return nil, err
		}
		tdm, err := opt.run(baseJob(b, taskrt.TDM, sched.FIFO))
		if err != nil {
			return nil, err
		}
		s, d := sw.MasterCreationFraction(), tdm.MasterCreationFraction()
		swF = append(swF, s)
		tdmF = append(tdmF, d)
		reduction := 0.0
		if d > 0 {
			reduction = s * float64(sw.Cycles) / (d * float64(tdm.Cycles))
		}
		t.AddRow(b.Short, stats.Percent(s), stats.Percent(d), fmt.Sprintf("%.1fx", reduction))
	}
	t.AddRow("AVG", stats.Percent(stats.Mean(swF)), stats.Percent(stats.Mean(tdmF)), "")
	return []*stats.Table{t}, nil
}

// Fig11IndexBits reproduces Figure 11: the average number of occupied DAT
// sets with static index-bit selection (starting at bits 0, 4, 8, 12, 16) and
// with the dynamic, size-based selection.
func Fig11IndexBits(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	staticBits := fig11StaticBits
	cols := []string{"benchmark"}
	for _, bit := range staticBits {
		cols = append(cols, fmt.Sprintf("static@%d", bit))
	}
	cols = append(cols, "dynamic")
	t := stats.NewTable("Figure 11: average occupied DAT sets (of 256)", cols...)
	for _, b := range benches {
		if !indexBitBenchmarks[b.Name] {
			continue
		}
		row := []any{b.Short}
		for _, bit := range staticBits {
			res, err := opt.run(fig11StaticJob(b, bit))
			if err != nil {
				return nil, err
			}
			row = append(row, res.DMU.DAT.AvgOccupiedSets)
		}
		// The default configuration already selects index bits dynamically.
		res, err := opt.run(baseJob(b, taskrt.TDM, sched.FIFO))
		if err != nil {
			return nil, err
		}
		row = append(row, res.DMU.DAT.AvgOccupiedSets)
		t.AddRowValues(row...)
	}
	return []*stats.Table{t}, nil
}

// Fig12Schedulers reproduces Figure 12: speedup (top) and normalized EDP
// (bottom) of the best software configuration (OptSW) and of the five
// software schedulers running on TDM, all normalized to the software runtime
// with a FIFO scheduler.
func Fig12Schedulers(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	speedup := stats.NewTable("Figure 12 (top): speedup over software runtime with FIFO",
		"benchmark", "OptSW", "FIFO+TDM", "LIFO+TDM", "Local+TDM", "Succ+TDM", "Age+TDM", "OptTDM")
	edp := stats.NewTable("Figure 12 (bottom): normalized EDP (lower is better)",
		"benchmark", "OptSW", "FIFO+TDM", "LIFO+TDM", "Local+TDM", "Succ+TDM", "Age+TDM", "OptTDM")
	agg := make(map[string][]float64)
	aggEDP := make(map[string][]float64)
	for _, b := range benches {
		base, err := opt.run(baseJob(b, taskrt.Software, sched.FIFO))
		if err != nil {
			return nil, err
		}
		// Best software configuration across schedulers.
		optSW := base
		for _, s := range tdmSchedulerColumns {
			res, err := opt.run(baseJob(b, taskrt.Software, s))
			if err != nil {
				return nil, err
			}
			if res.Cycles < optSW.Cycles {
				optSW = res
			}
		}
		tdmResults := make(map[string]*core.Result, len(tdmSchedulerColumns))
		var optTDM *core.Result
		for _, s := range tdmSchedulerColumns {
			res, err := opt.run(baseJob(b, taskrt.TDM, s))
			if err != nil {
				return nil, err
			}
			tdmResults[s] = res
			if optTDM == nil || res.Cycles < optTDM.Cycles {
				optTDM = res
			}
		}
		cols := []*core.Result{optSW,
			tdmResults[sched.FIFO], tdmResults[sched.LIFO], tdmResults[sched.Locality],
			tdmResults[sched.Successor], tdmResults[sched.Age], optTDM}
		names := speedup.Columns[1:]
		rowS := []any{b.Short}
		rowE := []any{b.Short}
		for i, res := range cols {
			s := stats.Speedup(base.Cycles, res.Cycles)
			e := stats.NormalizedEDP(base.Energy.EDP, res.Energy.EDP)
			rowS = append(rowS, s)
			rowE = append(rowE, e)
			agg[names[i]] = append(agg[names[i]], s)
			aggEDP[names[i]] = append(aggEDP[names[i]], e)
		}
		speedup.AddRowValues(rowS...)
		edp.AddRowValues(rowE...)
	}
	avgS := []any{"AVG"}
	avgE := []any{"AVG"}
	for _, name := range speedup.Columns[1:] {
		avgS = append(avgS, stats.GeoMean(agg[name]))
		avgE = append(avgE, stats.GeoMean(aggEDP[name]))
	}
	speedup.AddRowValues(avgS...)
	edp.AddRowValues(avgE...)
	return []*stats.Table{speedup, edp}, nil
}

// Fig13Comparison reproduces Figure 13: speedup and normalized EDP of Carbon,
// Task Superscalar and TDM (with the best scheduler per benchmark) over the
// software runtime with FIFO.
func Fig13Comparison(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	speedup := stats.NewTable("Figure 13 (top): speedup over software runtime with FIFO",
		"benchmark", "Carbon", "TaskSuperscalar", "OptTDM")
	edp := stats.NewTable("Figure 13 (bottom): normalized EDP (lower is better)",
		"benchmark", "Carbon", "TaskSuperscalar", "OptTDM")
	agg := make(map[string][]float64)
	aggEDP := make(map[string][]float64)
	for _, b := range benches {
		base, err := opt.run(baseJob(b, taskrt.Software, sched.FIFO))
		if err != nil {
			return nil, err
		}
		carbon, err := opt.run(baseJob(b, taskrt.Carbon, sched.FIFO))
		if err != nil {
			return nil, err
		}
		tss, err := opt.run(baseJob(b, taskrt.TaskSuperscalar, sched.FIFO))
		if err != nil {
			return nil, err
		}
		var optTDM *core.Result
		for _, s := range tdmSchedulerColumns {
			res, err := opt.run(baseJob(b, taskrt.TDM, s))
			if err != nil {
				return nil, err
			}
			if optTDM == nil || res.Cycles < optTDM.Cycles {
				optTDM = res
			}
		}
		rowS := []any{b.Short}
		rowE := []any{b.Short}
		for i, res := range []*core.Result{carbon, tss, optTDM} {
			name := speedup.Columns[1+i]
			s := stats.Speedup(base.Cycles, res.Cycles)
			e := stats.NormalizedEDP(base.Energy.EDP, res.Energy.EDP)
			rowS = append(rowS, s)
			rowE = append(rowE, e)
			agg[name] = append(agg[name], s)
			aggEDP[name] = append(aggEDP[name], e)
		}
		speedup.AddRowValues(rowS...)
		edp.AddRowValues(rowE...)
	}
	avgS := []any{"AVG"}
	avgE := []any{"AVG"}
	for _, name := range speedup.Columns[1:] {
		avgS = append(avgS, stats.GeoMean(agg[name]))
		avgE = append(avgE, stats.GeoMean(aggEDP[name]))
	}
	speedup.AddRowValues(avgS...)
	edp.AddRowValues(avgE...)
	return []*stats.Table{speedup, edp}, nil
}

// sizeColumns builds column headers like "DAT=512".
func sizeColumns(prefix string, sizes []int) []string {
	out := make([]string, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, fmt.Sprintf("%s=%d", prefix, s))
	}
	return out
}

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

// Sweep dimensions of Figures 7, 8, 9 and 11. Figure 9's first latency, 0,
// is its normalization baseline.
var (
	fig7Sizes       = []int{512, 1024, 2048, 4096}
	fig8Sizes       = []int{128, 256, 512, 1024, 2048}
	fig9Latencies   = []int{0, 1, 4, 16}
	fig11StaticBits = []uint{0, 4, 8, 12, 16}
)

// baseJob is a benchmark under a runtime and scheduler with the unmodified
// base configuration. Jobs are content-addressed, so points shared between
// figures (for example the software/FIFO baseline) simulate exactly once
// per cache.
func baseJob(b *workloads.Benchmark, kind taskrt.Kind, scheduler string) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: kind, Scheduler: scheduler, Label: "base"}
}

// dmuJob is a TDM/FIFO run of a benchmark on the DMU d (Figures 7, 8, 9
// and 11).
func dmuJob(b *workloads.Benchmark, label string, d dmu.Config) runner.Job {
	return runner.Job{Benchmark: b.Name, Runtime: taskrt.TDM, Scheduler: sched.FIFO, Label: label, DMU: &d}
}

// enlargeLists removes list-array pressure, so Figure 7 isolates the alias
// tables and Figure 8's ideal DMU has effectively unlimited list arrays.
func enlargeLists(d dmu.Config) dmu.Config {
	d.SLAEntries, d.DLAEntries, d.RLAEntries = 16384, 16384, 16384
	return d
}

// fig2Points: the software runtime with FIFO.
func fig2Points(_ Options, b *workloads.Benchmark, jobs []runner.Job) []runner.Job {
	return append(jobs, baseJob(b, taskrt.Software, sched.FIFO))
}

// Fig2Breakdown reproduces Figure 2: the execution-time breakdown
// (DEPS/SCHED/EXEC/IDLE) of the master thread and of the worker threads under
// the pure software runtime with a FIFO scheduler.
func Fig2Breakdown(opt Options) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 2: execution time breakdown, software runtime (percent of time)",
		"benchmark", "thread", "DEPS", "SCHED", "EXEC", "IDLE")
	var masterAgg, workerAgg []stats.Breakdown
	err := opt.each(fig2Points, func(b *workloads.Benchmark, res []*core.Result) {
		addRow := func(thread string, bd stats.Breakdown) {
			t.AddRow(b.Short, thread,
				stats.Percent(bd.Fraction(stats.Deps)),
				stats.Percent(bd.Fraction(stats.Sched)),
				stats.Percent(bd.Fraction(stats.Exec)),
				stats.Percent(bd.Fraction(stats.Idle)))
		}
		addRow("master", res[0].Master)
		addRow("workers", res[0].Workers)
		masterAgg = append(masterAgg, res[0].Master)
		workerAgg = append(workerAgg, res[0].Workers)
	})
	if err != nil {
		return nil, err
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

// fig6Points: the software runtime at every granularity of the benchmark's
// sweep, for the benchmarks whose granularity can change.
func fig6Points(_ Options, b *workloads.Benchmark, jobs []runner.Job) []runner.Job {
	if b.Pipeline {
		return jobs
	}
	for _, g := range b.Sweep {
		jobs = append(jobs, runner.Job{Benchmark: b.Name, Runtime: taskrt.Software, Scheduler: sched.FIFO,
			Granularity: g, Label: fmt.Sprintf("gran=%d", g)})
	}
	return jobs
}

// Fig6Granularity reproduces Figure 6: execution time of the software runtime
// across task granularities, normalized to the best granularity of each
// benchmark.
func Fig6Granularity(opt Options) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 6: execution time vs task granularity (software runtime, normalized to best)",
		"benchmark", "granularity", "unit", "tasks", "norm. time")
	err := opt.each(fig6Points, func(b *workloads.Benchmark, res []*core.Result) {
		best := fastest(res).Cycles
		for i, r := range res {
			t.AddRowValues(b.Short, b.Sweep[i], b.Unit, r.TasksExecuted, float64(r.Cycles)/float64(best))
		}
	})
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// fig7Points: for the alias-sensitive benchmarks, an idealized DMU with
// effectively unlimited alias entries, then every TAT/DAT size pair, TAT
// by TAT. Every point has enlarged list arrays.
func fig7Points(opt Options, b *workloads.Benchmark, jobs []runner.Job) []runner.Job {
	if !aliasSensitiveBenchmarks[b.Name] {
		return jobs
	}
	d := enlargeLists(opt.DMU)
	d.TATEntries, d.DATEntries, d.ReadyQueueEntries = 32768, 32768, 32768
	jobs = append(jobs, dmuJob(b, "ideal-alias", d))
	for _, tat := range fig7Sizes {
		for _, dat := range fig7Sizes {
			d.TATEntries, d.DATEntries, d.ReadyQueueEntries = tat, dat, tat
			jobs = append(jobs, dmuJob(b, fmt.Sprintf("tat=%d dat=%d", tat, dat), d))
		}
	}
	return jobs
}

// Fig7AliasSizing reproduces Figure 7: TDM performance while sweeping the TAT
// and DAT sizes, normalized to an idealized DMU with effectively unlimited
// entries and the same latency.
func Fig7AliasSizing(opt Options) ([]*stats.Table, error) {
	return perfVsIdeal(opt, fig7Points, "Figure 7: performance vs TAT/DAT entries (TDM, normalized to ideal DMU)",
		"TAT", fig7Sizes, "DAT", fig7Sizes)
}

// fig8Points: for the alias-sensitive benchmarks, an idealized DMU with
// effectively unlimited list arrays, then every list-array size.
func fig8Points(opt Options, b *workloads.Benchmark, jobs []runner.Job) []runner.Job {
	if !aliasSensitiveBenchmarks[b.Name] {
		return jobs
	}
	jobs = append(jobs, dmuJob(b, "ideal-lists", enlargeLists(opt.DMU)))
	for _, size := range fig8Sizes {
		d := opt.DMU
		d.SLAEntries, d.DLAEntries, d.RLAEntries = size, size, size
		jobs = append(jobs, dmuJob(b, fmt.Sprintf("la=%d", size), d))
	}
	return jobs
}

// Fig8ListArrays reproduces Figure 8: TDM performance while sweeping the size
// of the successor, dependence and reader list arrays (all three together),
// normalized to an idealized DMU. The paper sweeps the three arrays
// independently; EXPERIMENTS.md discusses the simplification.
func Fig8ListArrays(opt Options) ([]*stats.Table, error) {
	return perfVsIdeal(opt, fig8Points, "Figure 8: performance vs list array entries (TDM, normalized to ideal DMU)",
		"", nil, "LA", fig8Sizes)
}

// fig9Points: every DMU access latency, the zero-latency baseline first.
func fig9Points(opt Options, b *workloads.Benchmark, jobs []runner.Job) []runner.Job {
	for _, lat := range fig9Latencies {
		d := opt.DMU
		d.AccessLatency = lat
		jobs = append(jobs, dmuJob(b, fmt.Sprintf("lat=%d", lat), d))
	}
	return jobs
}

// Fig9Latency reproduces Figure 9: TDM performance when the access time of
// every DMU structure grows from 1 to 16 cycles, normalized to a DMU with
// zero-latency structures.
func Fig9Latency(opt Options) ([]*stats.Table, error) {
	return perfVsIdeal(opt, fig9Points, "Figure 9: performance vs DMU access latency (normalized to zero-latency DMU)",
		"", nil, "lat", fig9Latencies[1:])
}

// perfVsIdeal renders Figures 7, 8 and 9: the performance of each point
// relative to its benchmark's ideal DMU (the ideal's cycles over the
// point's), one table row per entry of rows, then AVG rows holding each
// cell's geometric mean across benchmarks. A benchmark's point list holds
// the ideal point first, then len(cols) points per row, row by row. The
// rowName column labels each row with its entry of rows; with nil rows a
// benchmark has one row and no such column.
func perfVsIdeal(opt Options, l pointList, title, rowName string, rows []int, colName string, cols []int) ([]*stats.Table, error) {
	header := []string{"benchmark"}
	if rows != nil {
		header = append(header, rowName)
	}
	for _, c := range cols {
		header = append(header, fmt.Sprintf("%s=%d", colName, c))
	}
	t := stats.NewTable(title, header...)
	label := func(first any, r int) []any {
		if rows == nil {
			return []any{first}
		}
		return []any{first, rows[r]}
	}
	nrows := max(len(rows), 1)
	perCell := make([][]float64, nrows*len(cols))
	err := opt.each(l, func(b *workloads.Benchmark, res []*core.Result) {
		ideal, cells := res[0], res[1:]
		for r := range nrows {
			row := label(b.Short, r)
			for c := range cols {
				i := r*len(cols) + c
				perf := float64(ideal.Cycles) / float64(cells[i].Cycles)
				perCell[i] = append(perCell[i], perf)
				row = append(row, perf)
			}
			t.AddRowValues(row...)
		}
	})
	if err != nil {
		return nil, err
	}
	for r := range nrows {
		row := label("AVG", r)
		for c := range cols {
			row = append(row, stats.GeoMean(perCell[r*len(cols)+c]))
		}
		t.AddRowValues(row...)
	}
	return []*stats.Table{t}, nil
}

// fig10Points: the software runtime, then TDM, both with FIFO.
func fig10Points(_ Options, b *workloads.Benchmark, jobs []runner.Job) []runner.Job {
	return append(jobs, baseJob(b, taskrt.Software, sched.FIFO), baseJob(b, taskrt.TDM, sched.FIFO))
}

// Fig10CreationTime reproduces Figure 10: the share of execution time the
// master spends creating tasks and managing dependences, with the software
// runtime and with TDM.
func Fig10CreationTime(opt Options) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 10: master task-creation time (percent of execution time)",
		"benchmark", "software", "TDM", "reduction")
	var swF, tdmF []float64
	err := opt.each(fig10Points, func(b *workloads.Benchmark, res []*core.Result) {
		sw, tdm := res[0], res[1]
		s, d := sw.MasterCreationFraction(), tdm.MasterCreationFraction()
		swF = append(swF, s)
		tdmF = append(tdmF, d)
		reduction := 0.0
		if d > 0 {
			reduction = s * float64(sw.Cycles) / (d * float64(tdm.Cycles))
		}
		t.AddRow(b.Short, stats.Percent(s), stats.Percent(d), fmt.Sprintf("%.1fx", reduction))
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("AVG", stats.Percent(stats.Mean(swF)), stats.Percent(stats.Mean(tdmF)), "")
	return []*stats.Table{t}, nil
}

// fig11Points: for the benchmarks Figure 11 evaluates, TDM with every static
// DAT index-bit selection, then TDM with the default configuration, which
// already selects index bits dynamically.
func fig11Points(opt Options, b *workloads.Benchmark, jobs []runner.Job) []runner.Job {
	if !indexBitBenchmarks[b.Name] {
		return jobs
	}
	for _, bit := range fig11StaticBits {
		d := opt.DMU
		d.DATIndex = dmu.StaticIndex(bit)
		jobs = append(jobs, dmuJob(b, fmt.Sprintf("index=static%d", bit), d))
	}
	return append(jobs, baseJob(b, taskrt.TDM, sched.FIFO))
}

// Fig11IndexBits reproduces Figure 11: the average number of occupied DAT
// sets with static index-bit selection (starting at bits 0, 4, 8, 12, 16) and
// with the dynamic, size-based selection.
func Fig11IndexBits(opt Options) ([]*stats.Table, error) {
	cols := []string{"benchmark"}
	for _, bit := range fig11StaticBits {
		cols = append(cols, fmt.Sprintf("static@%d", bit))
	}
	cols = append(cols, "dynamic")
	t := stats.NewTable("Figure 11: average occupied DAT sets (of 256)", cols...)
	err := opt.each(fig11Points, func(b *workloads.Benchmark, res []*core.Result) {
		row := []any{b.Short}
		for _, r := range res {
			row = append(row, r.DMU.DAT.AvgOccupiedSets)
		}
		t.AddRowValues(row...)
	})
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// fig12Points: the software runtime with FIFO, then the software runtime
// and TDM under each scheduler of tdmSchedulerColumns in turn.
func fig12Points(_ Options, b *workloads.Benchmark, jobs []runner.Job) []runner.Job {
	jobs = append(jobs, baseJob(b, taskrt.Software, sched.FIFO))
	for _, s := range tdmSchedulerColumns {
		jobs = append(jobs, baseJob(b, taskrt.Software, s), baseJob(b, taskrt.TDM, s))
	}
	return jobs
}

// Fig12Schedulers reproduces Figure 12: speedup (top) and normalized EDP
// (bottom) of the best software configuration (OptSW) and of the five
// software schedulers running on TDM, all normalized to the software runtime
// with a FIFO scheduler.
func Fig12Schedulers(opt Options) ([]*stats.Table, error) {
	return speedupEDP(opt, fig12Points,
		"Figure 12 (top): speedup over software runtime with FIFO",
		"Figure 12 (bottom): normalized EDP (lower is better)",
		[]string{"OptSW", "FIFO+TDM", "LIFO+TDM", "Local+TDM", "Succ+TDM", "Age+TDM", "OptTDM"},
		func(res []*core.Result) []*core.Result {
			sw := []*core.Result{res[0]}
			var tdm []*core.Result
			for i := 1; i < len(res); i += 2 {
				sw = append(sw, res[i])
				tdm = append(tdm, res[i+1])
			}
			return append(append([]*core.Result{fastest(sw)}, tdm...), fastest(tdm))
		})
}

// fig13Points: the software runtime, Carbon and Task Superscalar with FIFO,
// then TDM under each scheduler of tdmSchedulerColumns.
func fig13Points(_ Options, b *workloads.Benchmark, jobs []runner.Job) []runner.Job {
	jobs = append(jobs,
		baseJob(b, taskrt.Software, sched.FIFO),
		baseJob(b, taskrt.Carbon, sched.FIFO),
		baseJob(b, taskrt.TaskSuperscalar, sched.FIFO))
	for _, s := range tdmSchedulerColumns {
		jobs = append(jobs, baseJob(b, taskrt.TDM, s))
	}
	return jobs
}

// Fig13Comparison reproduces Figure 13: speedup and normalized EDP of Carbon,
// Task Superscalar and TDM (with the best scheduler per benchmark) over the
// software runtime with FIFO.
func Fig13Comparison(opt Options) ([]*stats.Table, error) {
	return speedupEDP(opt, fig13Points,
		"Figure 13 (top): speedup over software runtime with FIFO",
		"Figure 13 (bottom): normalized EDP (lower is better)",
		[]string{"Carbon", "TaskSuperscalar", "OptTDM"},
		func(res []*core.Result) []*core.Result {
			return []*core.Result{res[1], res[2], fastest(res[3:])}
		})
}

// speedupEDP renders Figures 12 and 13: a speedup table and a normalized
// EDP table with one row per benchmark and one column per name, then AVG
// rows of each column's geometric mean. A benchmark's point list starts with
// the software runtime with FIFO, the baseline, and columns picks one
// result per name from the benchmark's results.
func speedupEDP(opt Options, l pointList, speedupTitle, edpTitle string, names []string,
	columns func(res []*core.Result) []*core.Result) ([]*stats.Table, error) {
	header := append([]string{"benchmark"}, names...)
	speedup := stats.NewTable(speedupTitle, header...)
	edp := stats.NewTable(edpTitle, header...)
	aggS := make([][]float64, len(names))
	aggE := make([][]float64, len(names))
	err := opt.each(l, func(b *workloads.Benchmark, res []*core.Result) {
		base := res[0]
		rowS := []any{b.Short}
		rowE := []any{b.Short}
		for i, r := range columns(res) {
			s := stats.Speedup(base.Cycles, r.Cycles)
			e := stats.NormalizedEDP(base.Energy.EDP, r.Energy.EDP)
			rowS = append(rowS, s)
			rowE = append(rowE, e)
			aggS[i] = append(aggS[i], s)
			aggE[i] = append(aggE[i], e)
		}
		speedup.AddRowValues(rowS...)
		edp.AddRowValues(rowE...)
	})
	if err != nil {
		return nil, err
	}
	avgS := []any{"AVG"}
	avgE := []any{"AVG"}
	for i := range names {
		avgS = append(avgS, stats.GeoMean(aggS[i]))
		avgE = append(avgE, stats.GeoMean(aggE[i]))
	}
	speedup.AddRowValues(avgS...)
	edp.AddRowValues(avgE...)
	return []*stats.Table{speedup, edp}, nil
}

// fastest returns the first of the results with the fewest cycles.
func fastest(res []*core.Result) *core.Result {
	best := res[0]
	for _, r := range res[1:] {
		if r.Cycles < best.Cycles {
			best = r
		}
	}
	return best
}

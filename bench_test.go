// Package repro's top-level benchmarks regenerate every figure and table of
// the paper's evaluation through the experiment drivers, plus a set of
// micro-benchmarks of the core hardware models. One benchmark iteration
// equals one full regeneration of the corresponding figure/table, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The sub-benchmarks named "Quick" use a
// benchmark subset so the harness can also be exercised rapidly:
//
//	go test -bench='Quick|Micro' -benchmem
package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/dmu"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workloads"
)

// fullOptions returns experiment options covering all nine benchmarks at the
// paper's scale (32 cores).
func fullOptions() experiments.Options {
	return experiments.DefaultOptions()
}

// quickOptions restricts the experiments to three representative benchmarks
// (one fine-grained linear-algebra kernel, one pipeline, one data-parallel
// benchmark) so a single iteration stays in the seconds range.
func quickOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Benchmarks = []string{"cholesky", "dedup", "histogram"}
	return opt
}

// benchExperiment runs one experiment driver per iteration and reports the
// number of simulations and table rows produced.
func benchExperiment(b *testing.B, id string, opt experiments.Options) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	rows := 0
	for i := 0; i < b.N; i++ {
		// A fresh cache each iteration so every iteration does the full
		// set of simulations.
		opt.Cache = runner.NewStore()
		tables, err := exp.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		rows = 0
		for _, t := range tables {
			rows += len(t.Rows)
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// --- One benchmark per paper figure/table (full benchmark set) ---

func BenchmarkFig2Breakdown(b *testing.B)         { benchExperiment(b, "fig2", fullOptions()) }
func BenchmarkFig6Granularity(b *testing.B)       { benchExperiment(b, "fig6", fullOptions()) }
func BenchmarkTable2Characteristics(b *testing.B) { benchExperiment(b, "tab2", fullOptions()) }
func BenchmarkFig7AliasSizing(b *testing.B)       { benchExperiment(b, "fig7", fullOptions()) }
func BenchmarkFig8ListArrays(b *testing.B)        { benchExperiment(b, "fig8", fullOptions()) }
func BenchmarkFig9Latency(b *testing.B)           { benchExperiment(b, "fig9", fullOptions()) }
func BenchmarkTable3Area(b *testing.B)            { benchExperiment(b, "tab3", fullOptions()) }
func BenchmarkFig10CreationTime(b *testing.B)     { benchExperiment(b, "fig10", fullOptions()) }
func BenchmarkFig11IndexBits(b *testing.B)        { benchExperiment(b, "fig11", fullOptions()) }
func BenchmarkFig12Schedulers(b *testing.B)       { benchExperiment(b, "fig12", fullOptions()) }
func BenchmarkFig13Comparison(b *testing.B)       { benchExperiment(b, "fig13", fullOptions()) }
func BenchmarkAreaComparison(b *testing.B)        { benchExperiment(b, "area-ratio", fullOptions()) }
func BenchmarkExtraCore(b *testing.B)             { benchExperiment(b, "extracore", fullOptions()) }

// --- Quick variants on a benchmark subset ---

func BenchmarkQuickFig2(b *testing.B)  { benchExperiment(b, "fig2", quickOptions()) }
func BenchmarkQuickFig10(b *testing.B) { benchExperiment(b, "fig10", quickOptions()) }
func BenchmarkQuickFig12(b *testing.B) { benchExperiment(b, "fig12", quickOptions()) }
func BenchmarkQuickFig13(b *testing.B) { benchExperiment(b, "fig13", quickOptions()) }

// --- Sweep-engine benchmarks: full-evaluation regeneration ---
//
// One iteration regenerates every figure and table of the evaluation over the
// quick benchmark subset. The Sequential variant pins the worker pool to one
// worker (the pre-runner execution model); the Parallel variant uses
// GOMAXPROCS workers, demonstrating the wall-clock speedup of running the
// deduplicated union of all sweep points concurrently.

func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	opt := quickOptions()
	opt.Workers = workers
	for i := 0; i < b.N; i++ {
		// A fresh cache each iteration so every iteration does the full
		// set of simulations.
		opt.Cache = runner.NewStore()
		if err := experiments.RunAll(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(opt.Cache.Len()), "points")
	}
}

func BenchmarkSweepRunAllSequential(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkSweepRunAllParallel(b *testing.B)   { benchRunAll(b, 0) }

// --- Single-run benchmarks: one simulated execution per iteration ---

func benchmarkSingleRun(b *testing.B, benchmark string, kind core.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := core.RunBenchmark(benchmark, kind)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TasksExecuted)/res.Seconds/1e6, "Mtasks/simsec")
	}
}

func BenchmarkRunCholeskySoftware(b *testing.B) {
	benchmarkSingleRun(b, "cholesky", core.DefaultConfig(core.Software))
}

func BenchmarkRunCholeskyTDM(b *testing.B) {
	benchmarkSingleRun(b, "cholesky", core.DefaultConfig(core.TDM))
}

func BenchmarkRunQRTDM(b *testing.B) {
	benchmarkSingleRun(b, "qr", core.DefaultConfig(core.TDM))
}

func BenchmarkRunDedupTDMSuccessor(b *testing.B) {
	cfg := core.DefaultConfig(core.TDM)
	cfg.Scheduler = "successor"
	benchmarkSingleRun(b, "dedup", cfg)
}

// --- Micro-benchmarks of the hardware and simulation substrates ---

// BenchmarkMicroDMUAddDependence measures the functional cost of Algorithm 1
// on a warm DMU.
func BenchmarkMicroDMUAddDependence(b *testing.B) {
	unit := dmu.New(dmu.DefaultConfig())
	desc := func(i int) uint64 { return 0x7000_0000 + uint64(i)*320 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := desc(i)
		if _, err := unit.CreateTask(d); err != nil {
			b.Fatal(err)
		}
		addr := uint64(0x9000_0000 + (i%512)*4096)
		if _, err := unit.AddDependence(d, addr, 4096, task.InOut); err != nil {
			b.Fatal(err)
		}
		if _, err := unit.SubmitTask(d); err != nil {
			b.Fatal(err)
		}
		// Retire immediately so the structures never fill.
		for {
			rt, _, ok := unit.GetReadyTask()
			if !ok {
				break
			}
			if _, err := unit.FinishTask(rt.DescAddr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMicroDMUWholeCholesky replays the complete Cholesky dependence
// stream through a standalone DMU (no timing simulation).
func BenchmarkMicroDMUWholeCholesky(b *testing.B) {
	bench, err := workloads.ByName("cholesky")
	if err != nil {
		b.Fatal(err)
	}
	prog := bench.GenerateOptimal(true, machine.Default())
	specs := prog.Tasks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit := dmu.New(dmu.DefaultConfig())
		desc := func(id task.ID) uint64 { return 0x7000_0000 + uint64(id)*320 }
		retire := func() {
			rt, _, ok := unit.GetReadyTask()
			if !ok {
				b.Fatal("DMU full with empty ready queue")
			}
			if _, err := unit.FinishTask(rt.DescAddr); err != nil {
				b.Fatal(err)
			}
		}
		for _, s := range specs {
			d := desc(s.ID)
			for !unit.CanCreateTask(d) {
				retire()
			}
			if _, err := unit.CreateTask(d); err != nil {
				b.Fatal(err)
			}
			for _, dep := range s.Deps {
				for !unit.CanAddDependence(d, dep.Addr, dep.Size, dep.Dir) {
					retire()
				}
				if _, err := unit.AddDependence(d, dep.Addr, dep.Size, dep.Dir); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := unit.SubmitTask(d); err != nil {
				b.Fatal(err)
			}
		}
		for !unit.Quiescent() {
			retire()
		}
	}
	b.ReportMetric(float64(len(specs)), "tasks/op")
}

// BenchmarkMicroGoldenGraph measures building the reference dependence graph
// of the largest benchmark program.
func BenchmarkMicroGoldenGraph(b *testing.B) {
	prog := mustProgram(b, "streamcluster", true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := task.BuildProgramGraph(prog)
		if g.NumTasks() != prog.NumTasks() {
			b.Fatal("graph size mismatch")
		}
	}
}

// BenchmarkMicroWorkloadGeneration measures generating every benchmark
// program at its TDM-optimal granularity.
func BenchmarkMicroWorkloadGeneration(b *testing.B) {
	m := machine.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, w := range workloads.All() {
			total += w.GenerateOptimal(true, m).NumTasks()
		}
		if total == 0 {
			b.Fatal("no tasks generated")
		}
	}
}

// BenchmarkMicroSimEngine measures the raw discrete-event engine: processes
// exchanging waits.
func BenchmarkMicroSimEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		for p := 0; p < 8; p++ {
			eng.Spawn(fmt.Sprintf("p%d", p), func(pr *sim.Proc) {
				for k := 0; k < 200; k++ {
					pr.Wait(10)
				}
			})
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroSchedulerThroughput measures push/pop throughput of each
// scheduling policy.
func BenchmarkMicroSchedulerThroughput(b *testing.B) {
	for _, name := range core.Schedulers() {
		b.Run(name, func(b *testing.B) {
			benchScheduler(b, name)
		})
	}
}

func benchScheduler(b *testing.B, name string) {
	specs := make([]*task.Spec, 256)
	for i := range specs {
		specs[i] = &task.Spec{ID: task.ID(i), Kernel: "k", Duration: 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool, err := sched.New(name, 32)
		if err != nil {
			b.Fatal(err)
		}
		for j, s := range specs {
			pool.Push(&sched.ReadyTask{Spec: s, NumSuccs: j % 4, Affinity: j % 32})
		}
		for pool.Len() > 0 {
			if pool.Pop(i%32) == nil {
				b.Fatal("pop returned nil with non-empty pool")
			}
		}
	}
}

// --- small helpers ---

func mustProgram(b *testing.B, name string, tdm bool) *task.Program {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w.GenerateOptimal(tdm, machine.Default())
}

// BenchmarkMicroSpeedupAggregation exercises the statistics helpers used by
// every experiment table (geometric means over per-benchmark speedups).
func BenchmarkMicroSpeedupAggregation(b *testing.B) {
	values := make([]float64, 0, 1024)
	for i := 1; i <= 1024; i++ {
		values = append(values, stats.Speedup(int64(1000+i), 1000))
	}
	for i := 0; i < b.N; i++ {
		if stats.GeoMean(values) <= 0 {
			b.Fatal("geomean not positive")
		}
	}
}

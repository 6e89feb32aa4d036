package perf

import (
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dmu"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/taskrt"
	"repro/internal/workloads"
)

// Probe is one pinned benchmark of the suite. The body runs under the
// standard testing benchmark driver; metrics it stores into extra are
// reported per op, and any "*_per_op" metric additionally derives a
// "*_per_sec" rate from the measured ns/op.
type Probe struct {
	Name  string
	Quick bool
	Body  func(b *testing.B, extra map[string]float64)
}

// simCyclesKey is the per-op metric every timing-simulation probe reports;
// the derived rate (simulated cycles retired per wall-clock second) is the
// headline throughput number of the simulator.
const simCyclesKey = "sim_cycles_per_op"

// Suite returns the pinned probe list; quick selects the PR-gating subset.
func Suite(quick bool) []Probe {
	var out []Probe
	for _, p := range allProbes() {
		if quick && !p.Quick {
			continue
		}
		out = append(out, p)
	}
	return out
}

func allProbes() []Probe {
	probes := []Probe{
		{Name: "sim/engine-waits", Quick: true, Body: benchSimEngineWaits},
		{Name: "sim/resource-contention", Quick: true, Body: benchSimResourceContention},
		{Name: "dmu/add-dependence", Quick: true, Body: benchDMUAddDependence},
		{Name: "dmu/cholesky-replay", Quick: true, Body: benchDMUCholeskyReplay},
		{Name: "sweep/synth-all", Quick: true, Body: benchSweepSynthAll},
		{Name: "service/submit-first-row", Quick: true, Body: benchServiceSubmitFirstRow},
		{Name: "service/dispatch-points", Quick: true, Body: benchServiceDispatchPoints},
		{Name: "store/hit-miss", Quick: true, Body: benchStoreHitMiss},
		{Name: "store/peer-fetch", Quick: true, Body: benchStorePeerFetch},
		{Name: "service/tenant-dispatch", Quick: true, Body: benchServiceTenantDispatch},
		{Name: "search/halving-sweep", Quick: true, Body: benchSearchHalvingSweep},
		{Name: "taskrt/cholesky-tdm", Quick: false, Body: benchRunBenchmark("cholesky", core.TDM)},
		{Name: "taskrt/cholesky-software", Quick: false, Body: benchRunBenchmark("cholesky", core.Software)},
	}
	for _, kind := range core.Runtimes() {
		probes = append(probes, Probe{
			Name:  fmt.Sprintf("taskrt/blockdense-%s", kind),
			Quick: true,
			Body:  benchSynthBackend(kind),
		})
	}
	for _, fig := range []string{"fig2", "fig10", "fig12", "fig13"} {
		probes = append(probes, Probe{
			Name:  "figures/" + fig + "-quick",
			Quick: true,
			Body:  benchQuickFigure(fig),
		})
	}
	return probes
}

// Run executes every probe whose name matches filter (nil means all) and
// appends the results to the report. Progress lines go to log when non-nil.
// It returns an error naming every probe that failed (a failed probe yields
// no result; the remaining probes still run).
func Run(rep *Report, probes []Probe, filter *regexp.Regexp, log io.Writer) error {
	// Outside go test nothing registers the testing flags, and a probe's
	// b.Fatal would dereference them instead of failing the probe. Init is a
	// no-op when go test already ran it.
	testing.Init()
	var failed []string
	for _, p := range probes {
		if filter != nil && !filter.MatchString(p.Name) {
			continue
		}
		if log != nil {
			fmt.Fprintf(log, "running %s...\n", p.Name)
		}
		extra := make(map[string]float64)
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			p.Body(b, extra)
		})
		if br.N == 0 {
			// b.Fatal inside the probe body aborts the benchmark with
			// zero iterations; surface the probe instead of emitting a
			// NaN-filled result.
			failed = append(failed, p.Name)
			if log != nil {
				fmt.Fprintf(log, "  %s: FAILED\n", p.Name)
			}
			continue
		}
		res := Result{
			Name:        p.Name,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: float64(br.AllocsPerOp()),
			BytesPerOp:  float64(br.AllocedBytesPerOp()),
		}
		if len(extra) > 0 {
			res.Extra = make(map[string]float64, 2*len(extra))
			for k, v := range extra {
				res.Extra[k] = v
				// Derive wall-clock rates for per-op metrics.
				if res.NsPerOp > 0 {
					if base, ok := strings.CutSuffix(k, "_per_op"); ok && base != "" {
						res.Extra[base+"_per_sec"] = v / res.NsPerOp * 1e9
					}
				}
			}
		}
		rep.Results = append(rep.Results, res)
		if log != nil {
			fmt.Fprintf(log, "  %s: %.0f ns/op, %.0f allocs/op (%d iterations)\n",
				p.Name, res.NsPerOp, res.AllocsPerOp, res.Iterations)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("perf: %d probe(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// --- probe bodies ---

// benchSimEngineWaits measures the raw discrete-event engine: 8 processes
// exchanging 200 timed waits each, the park/resume pattern of every worker
// thread in the machine model.
func benchSimEngineWaits(b *testing.B, extra map[string]float64) {
	const procs, waits, step = 8, 200, 10
	var end sim.Time
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		for p := 0; p < procs; p++ {
			eng.Spawn("p", func(pr *sim.Proc) {
				for k := 0; k < waits; k++ {
					pr.Wait(step)
				}
			})
		}
		var err error
		end, err = eng.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	extra[simCyclesKey] = float64(end)
	extra["events_per_op"] = float64(procs*waits + procs)
}

// benchSimResourceContention measures the exclusive-resource handoff that
// serializes every DMU port access.
func benchSimResourceContention(b *testing.B, extra map[string]float64) {
	const procs, rounds, hold = 8, 100, 5
	var end sim.Time
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		port := eng.NewResource("port")
		for p := 0; p < procs; p++ {
			eng.Spawn("p", func(pr *sim.Proc) {
				for k := 0; k < rounds; k++ {
					port.Acquire(pr)
					pr.Wait(hold)
					port.Release(pr)
				}
			})
		}
		var err error
		end, err = eng.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	extra[simCyclesKey] = float64(end)
}

// benchDMUAddDependence measures the functional cost of Algorithm 1 on a warm
// DMU: one create/add/submit/retire round per op.
func benchDMUAddDependence(b *testing.B, extra map[string]float64) {
	unit := dmu.New(dmu.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := 0x7000_0000 + uint64(i)*320
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

// benchDMUCholeskyReplay replays the complete Cholesky dependence stream
// through a standalone DMU (no timing simulation).
func benchDMUCholeskyReplay(b *testing.B, extra map[string]float64) {
	bench, err := workloads.ByName("cholesky")
	if err != nil {
		b.Fatal(err)
	}
	specs := bench.GenerateOptimal(true, machine.Default()).Tasks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit := dmu.New(dmu.DefaultConfig())
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
			d := 0x7000_0000 + uint64(s.ID)*320
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
	extra["tasks_per_op"] = float64(len(specs))
}

// benchSynthBackend runs one timing simulation of a mid-size synthetic
// wavefront program on the given runtime system.
func benchSynthBackend(kind taskrt.Kind) func(*testing.B, map[string]float64) {
	const spec = "synth:blockdense:width=8,mean=2000"
	return func(b *testing.B, extra map[string]float64) {
		bench, err := workloads.ByName(spec)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig(kind)
		prog := bench.GenerateOptimal(kind.UsesDMU(), cfg.Machine)
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			res, err := core.Run(prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		extra[simCyclesKey] = float64(cycles)
		extra["tasks_per_op"] = float64(prog.NumTasks())
	}
}

// benchRunBenchmark runs one full paper benchmark on the given runtime.
func benchRunBenchmark(name string, kind taskrt.Kind) func(*testing.B, map[string]float64) {
	return func(b *testing.B, extra map[string]float64) {
		cfg := core.DefaultConfig(kind)
		var cycles int64
		for i := 0; i < b.N; i++ {
			res, err := core.RunBenchmark(name, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		extra[simCyclesKey] = float64(cycles)
	}
}

// benchQuickFigure regenerates one paper figure over the quick benchmark
// subset (one linear-algebra kernel, one pipeline, one data-parallel
// benchmark), exactly like the repository's BenchmarkQuick* set.
func benchQuickFigure(id string) func(*testing.B, map[string]float64) {
	return func(b *testing.B, extra map[string]float64) {
		exp, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		opt := experiments.DefaultOptions()
		opt.Benchmarks = []string{"cholesky", "dedup", "histogram"}
		rows := 0
		for i := 0; i < b.N; i++ {
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
		extra["rows_per_op"] = float64(rows)
	}
}

// benchSweepSynthAll executes the deduplicated synth:all sweep — one default
// program per synthetic family on every runtime system — through the parallel
// sweep engine, and reports aggregate simulated cycles.
func benchSweepSynthAll(b *testing.B, extra map[string]float64) {
	grid := runner.Grid{Benchmarks: []string{"synth:all"}}
	if err := grid.Validate(); err != nil {
		b.Fatal(err)
	}
	jobs := grid.Jobs()
	var cycles float64
	for i := 0; i < b.N; i++ {
		eng := &runner.Engine{Base: core.DefaultConfig(core.TDM), Store: runner.NewStore()}
		results, err := eng.RunAll(jobs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = 0
		for _, r := range results {
			cycles += float64(r.Cycles)
		}
	}
	extra[simCyclesKey] = cycles
	extra["points_per_op"] = float64(len(jobs))
}

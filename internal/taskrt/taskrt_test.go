package taskrt

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/task"
)

// testMachine returns a small, fast machine configuration for tests.
func testMachine(cores int) machine.Config {
	m := machine.Default()
	m.Cores = cores
	return m
}

func testConfig(kind Kind, cores int) Config {
	cfg := NewConfig(kind)
	cfg.Machine = testMachine(cores)
	return cfg
}

// chainsProgram builds `chains` independent chains of `length` tasks each,
// every task lasting durationUS microseconds (Blackscholes-like structure).
func chainsProgram(chains, length int, durationUS float64) *task.Program {
	m := machine.Default()
	b := task.NewBuilder("chains")
	b.Region(0)
	dur := m.MicrosToCycles(durationUS)
	for step := 0; step < length; step++ {
		for c := 0; c < chains; c++ {
			addr := uint64(0x100000 + c*0x1000)
			b.Task("step", dur).InOut(addr, 4096).Add()
		}
	}
	return b.Build()
}

// independentProgram builds n independent tasks.
func independentProgram(n int, durationUS float64) *task.Program {
	m := machine.Default()
	b := task.NewBuilder("independent")
	b.Region(0)
	dur := m.MicrosToCycles(durationUS)
	for i := 0; i < n; i++ {
		b.Task("work", dur).Out(uint64(0x200000+i*4096), 4096).Add()
	}
	return b.Build()
}

// pipelineProgram builds a Dedup-like structure: n independent compute tasks,
// each followed by an I/O task; the I/O tasks form a serial chain.
func pipelineProgram(n int, computeUS, ioUS float64) *task.Program {
	m := machine.Default()
	b := task.NewBuilder("pipeline")
	b.Region(0)
	const ioToken = uint64(0xF0000000)
	for i := 0; i < n; i++ {
		buf := uint64(0x300000 + i*0x1000)
		b.Task("compute", m.MicrosToCycles(computeUS)).Out(buf, 4096).Add()
		b.Task("io", m.MicrosToCycles(ioUS)).In(buf, 4096).InOut(ioToken, 64).Add()
	}
	return b.Build()
}

func mustRun(t *testing.T, prog *task.Program, cfg Config) *Result {
	t.Helper()
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatalf("Run(%s, %s/%s): %v", prog.Name, cfg.Runtime, cfg.Scheduler, err)
	}
	return res
}

func TestAllRuntimesCompleteSmallProgram(t *testing.T) {
	prog := chainsProgram(6, 8, 50)
	for _, kind := range Kinds() {
		res := mustRun(t, prog, testConfig(kind, 4))
		if res.TasksExecuted != prog.NumTasks() || res.TasksCreated != prog.NumTasks() {
			t.Errorf("%s: executed %d created %d, want %d", kind, res.TasksExecuted, res.TasksCreated, prog.NumTasks())
		}
		if res.Cycles <= 0 {
			t.Errorf("%s: non-positive cycles", kind)
		}
		sum := 0
		for _, n := range res.ExecutedByCore {
			sum += n
		}
		if sum != prog.NumTasks() {
			t.Errorf("%s: ExecutedByCore sums to %d", kind, sum)
		}
		// Task latency is measured on the simulated clock: every
		// submit-to-retire span lies within the run.
		lat := res.TaskLatency
		if lat == nil {
			t.Errorf("%s: no task latency summary", kind)
			continue
		}
		if lat.Count != res.TasksExecuted {
			t.Errorf("%s: latency summary counts %d tasks, %d executed", kind, lat.Count, res.TasksExecuted)
		}
		if !(0 <= lat.P50 && lat.P50 <= lat.P99 && lat.P99 <= lat.Max && lat.Max <= res.Cycles) {
			t.Errorf("%s: task latency P50 %d, P99 %d, max %d outside [0, %d cycles]",
				kind, lat.P50, lat.P99, lat.Max, res.Cycles)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	prog := chainsProgram(4, 6, 30)
	for _, kind := range []Kind{Software, TDM} {
		a := mustRun(t, prog, testConfig(kind, 4))
		b := mustRun(t, prog, testConfig(kind, 4))
		if a.Cycles != b.Cycles {
			t.Errorf("%s: non-deterministic cycles %d vs %d", kind, a.Cycles, b.Cycles)
		}
	}
}

func TestBreakdownAccountsWholeExecution(t *testing.T) {
	prog := chainsProgram(6, 6, 40)
	for _, kind := range Kinds() {
		res := mustRun(t, prog, testConfig(kind, 4))
		for core, b := range res.PerThread {
			total := b.Total()
			diff := res.Cycles - total
			if diff < 0 {
				diff = -diff
			}
			// Each thread's breakdown must cover essentially the whole
			// execution (small slack for end-of-run bookkeeping).
			if float64(diff) > 0.02*float64(res.Cycles)+2000 {
				t.Errorf("%s core %d: breakdown %d vs cycles %d", kind, core, total, res.Cycles)
			}
		}
	}
}

func TestExecCyclesMatchProgramWork(t *testing.T) {
	// Without locality savings, the total EXEC cycles must equal the
	// program's total work exactly.
	prog := independentProgram(24, 100)
	cfg := testConfig(Software, 4)
	cfg.Machine.Locality.MaxBonus = 0
	res := mustRun(t, prog, cfg)
	execTotal := stats.Sum(res.PerThread...).Get(stats.Exec)
	if execTotal != prog.TotalWork() {
		t.Fatalf("EXEC cycles %d, want %d", execTotal, prog.TotalWork())
	}
}

func TestMoreCoresRunFaster(t *testing.T) {
	prog := independentProgram(48, 100)
	slow := mustRun(t, prog, testConfig(Software, 3))
	fast := mustRun(t, prog, testConfig(Software, 9))
	if fast.Cycles >= slow.Cycles {
		t.Fatalf("9 cores (%d cycles) not faster than 3 cores (%d cycles)", fast.Cycles, slow.Cycles)
	}
}

func TestTDMFasterThanSoftwareForFineGrainedTasks(t *testing.T) {
	// Many short tasks make the master's dependence management the
	// bottleneck; offloading it to the DMU must help (the paper's core
	// claim, Figures 10 and 12).
	prog := chainsProgram(16, 24, 20)
	sw := mustRun(t, prog, testConfig(Software, 8))
	tdm := mustRun(t, prog, testConfig(TDM, 8))
	if tdm.Cycles >= sw.Cycles {
		t.Fatalf("TDM (%d) not faster than software (%d)", tdm.Cycles, sw.Cycles)
	}
	if tdm.MasterCreationFraction() >= sw.MasterCreationFraction() {
		t.Fatalf("TDM creation fraction %.3f not below software %.3f",
			tdm.MasterCreationFraction(), sw.MasterCreationFraction())
	}
}

func TestTaskSuperscalarBetweenSoftwareAndBest(t *testing.T) {
	prog := chainsProgram(16, 16, 20)
	sw := mustRun(t, prog, testConfig(Software, 8))
	tss := mustRun(t, prog, testConfig(TaskSuperscalar, 8))
	if tss.Cycles >= sw.Cycles {
		t.Fatalf("Task Superscalar (%d) not faster than software (%d) on a creation-bound program", tss.Cycles, sw.Cycles)
	}
	if tss.DMU == nil || tss.HardwareQueue == nil {
		t.Fatal("Task Superscalar result missing hardware statistics")
	}
}

func TestCarbonOnlyHelpsScheduling(t *testing.T) {
	// Carbon keeps dependence management in software, so on a
	// creation-bound program it should improve far less than TDM.
	prog := chainsProgram(16, 16, 20)
	sw := mustRun(t, prog, testConfig(Software, 8))
	carbon := mustRun(t, prog, testConfig(Carbon, 8))
	tdm := mustRun(t, prog, testConfig(TDM, 8))
	if carbon.CarbonQueues == nil {
		t.Fatal("Carbon result missing queue statistics")
	}
	swGain := float64(sw.Cycles) / float64(carbon.Cycles)
	tdmGain := float64(sw.Cycles) / float64(tdm.Cycles)
	if swGain > tdmGain {
		t.Fatalf("Carbon gain %.3f exceeds TDM gain %.3f on creation-bound program", swGain, tdmGain)
	}
}

func TestSchedulersAllCorrectUnderTDM(t *testing.T) {
	prog := pipelineProgram(24, 80, 40)
	for _, name := range sched.Names() {
		cfg := testConfig(TDM, 6)
		cfg.Scheduler = name
		res := mustRun(t, prog, cfg)
		if res.TasksExecuted != prog.NumTasks() {
			t.Errorf("%s: executed %d of %d", name, res.TasksExecuted, prog.NumTasks())
		}
		if res.Scheduler != name {
			t.Errorf("result scheduler = %q, want %q", res.Scheduler, name)
		}
	}
}

func TestSuccessorSchedulerOverlapsPipeline(t *testing.T) {
	// Dedup-like behaviour (Section VI-A): FIFO starts the serial I/O
	// chain late because the independent compute tasks became ready first;
	// the successor scheduler prioritises I/O tasks (their successor is
	// already known when they wake), overlapping the chain with compute.
	prog := pipelineProgram(60, 200, 120)
	fifoCfg := testConfig(TDM, 8)
	fifoCfg.Scheduler = sched.FIFO
	succCfg := testConfig(TDM, 8)
	succCfg.Scheduler = sched.Successor
	fifo := mustRun(t, prog, fifoCfg)
	succ := mustRun(t, prog, succCfg)
	if succ.Cycles >= fifo.Cycles {
		t.Fatalf("successor scheduler (%d) not faster than FIFO (%d) on pipeline", succ.Cycles, fifo.Cycles)
	}
}

func TestLIFOHurtsIndependentChains(t *testing.T) {
	// Blackscholes-like behaviour (Section VI-A): with more chains than
	// cores, LIFO lets a subset of chains race ahead and ends with load
	// imbalance, while FIFO keeps all chains progressing together.
	prog := chainsProgram(16, 12, 200)
	fifoCfg := testConfig(TDM, 5)
	lifoCfg := testConfig(TDM, 5)
	lifoCfg.Scheduler = sched.LIFO
	fifo := mustRun(t, prog, fifoCfg)
	lifo := mustRun(t, prog, lifoCfg)
	if lifo.Cycles <= fifo.Cycles {
		t.Fatalf("LIFO (%d) unexpectedly not slower than FIFO (%d) on independent chains", lifo.Cycles, fifo.Cycles)
	}
}

func TestLocalitySchedulerExploitsReuse(t *testing.T) {
	// Chains reuse the same block on every step. With many more chains
	// than cores, FIFO keeps shuffling chains across cores (the global
	// queue always holds older tasks from other chains), while the
	// locality scheduler runs each chain's successor on the core that
	// produced its input, so its footprint hit rate must be much higher.
	// Whether that translates into end-to-end speedup depends on the TDG
	// shape (the paper reports +4.2% on Cholesky and -7.8% on
	// Blackscholes); the experiment-level tests cover those cases.
	prog := chainsProgram(16, 20, 100)
	base := testConfig(TDM, 5)
	base.Machine.Locality.MaxBonus = 0.25
	locCfg := base
	locCfg.Scheduler = sched.Locality
	fifo := mustRun(t, prog, base)
	loc := mustRun(t, prog, locCfg)
	if loc.LocalityHitRate < fifo.LocalityHitRate+0.1 {
		t.Fatalf("locality hit rate %.3f not clearly above FIFO %.3f",
			loc.LocalityHitRate, fifo.LocalityHitRate)
	}
	if loc.TasksExecuted != prog.NumTasks() || fifo.TasksExecuted != prog.NumTasks() {
		t.Fatal("not all tasks executed")
	}
}

func TestSmallDMUStillCorrectButSlower(t *testing.T) {
	prog := chainsProgram(12, 16, 30)
	big := testConfig(TDM, 6)
	small := testConfig(TDM, 6)
	small.DMU.TATEntries, small.DMU.TATAssoc = 16, 8
	small.DMU.DATEntries, small.DMU.DATAssoc = 16, 8
	small.DMU.SLAEntries, small.DMU.DLAEntries, small.DMU.RLAEntries = 32, 32, 32
	small.DMU.ReadyQueueEntries = 16
	bigRes := mustRun(t, prog, big)
	smallRes := mustRun(t, prog, small)
	if smallRes.TasksExecuted != prog.NumTasks() {
		t.Fatalf("small DMU executed %d of %d", smallRes.TasksExecuted, prog.NumTasks())
	}
	if smallRes.Cycles < bigRes.Cycles {
		t.Fatalf("tiny DMU (%d) unexpectedly faster than default (%d)", smallRes.Cycles, bigRes.Cycles)
	}
	if smallRes.DMU.Ops.MaxInFlightTasks > 16 {
		t.Fatalf("small DMU exceeded its task capacity: %d", smallRes.DMU.Ops.MaxInFlightTasks)
	}
}

func TestHigherDMULatencySlower(t *testing.T) {
	prog := chainsProgram(8, 12, 20)
	fast := testConfig(TDM, 4)
	slow := testConfig(TDM, 4)
	slow.DMU.AccessLatency = 16
	fastRes := mustRun(t, prog, fast)
	slowRes := mustRun(t, prog, slow)
	if slowRes.Cycles <= fastRes.Cycles {
		t.Fatalf("16-cycle DMU (%d) not slower than 1-cycle DMU (%d)", slowRes.Cycles, fastRes.Cycles)
	}
}

func TestMultiRegionBarriers(t *testing.T) {
	m := machine.Default()
	b := task.NewBuilder("regions")
	b.Region(m.MicrosToCycles(20))
	for i := 0; i < 10; i++ {
		b.Task("r0", m.MicrosToCycles(50)).Out(uint64(0x1000+i*64), 64).Add()
	}
	b.Region(m.MicrosToCycles(10))
	for i := 0; i < 10; i++ {
		b.Task("r1", m.MicrosToCycles(50)).In(uint64(0x1000+i*64), 64).Add()
	}
	prog := b.Build()
	for _, kind := range Kinds() {
		res := mustRun(t, prog, testConfig(kind, 4))
		if res.TasksExecuted != 20 {
			t.Errorf("%s: executed %d of 20", kind, res.TasksExecuted)
		}
		// The two sequential sections plus both regions' critical path
		// bound the execution time from below.
		if res.Cycles < m.MicrosToCycles(20+10+50+50) {
			t.Errorf("%s: cycles %d below structural lower bound", kind, res.Cycles)
		}
	}
}

func TestTimelineRecording(t *testing.T) {
	prog := independentProgram(8, 50)
	cfg := testConfig(TDM, 4)
	cfg.RecordTimeline = true
	res := mustRun(t, prog, cfg)
	if res.Timeline == nil || res.Timeline.Len() == 0 {
		t.Fatal("timeline not recorded")
	}
	ascii := res.Timeline.ASCII(40)
	if !strings.Contains(ascii, "#") {
		t.Fatalf("timeline rendering contains no task execution:\n%s", ascii)
	}
	if res.Timeline.End() > res.Cycles {
		t.Fatalf("timeline end %d beyond run end %d", res.Timeline.End(), res.Cycles)
	}
}

func TestRunErrors(t *testing.T) {
	prog := independentProgram(4, 10)
	if _, err := Run(nil, testConfig(Software, 4)); err == nil {
		t.Error("nil program accepted")
	}
	empty := &task.Program{Name: "empty"}
	if _, err := Run(empty, testConfig(Software, 4)); err == nil {
		t.Error("empty program accepted")
	}
	bad := testConfig(Software, 4)
	bad.Scheduler = "nope"
	if _, err := Run(prog, bad); err == nil {
		t.Error("unknown scheduler accepted")
	}
	badKind := testConfig(Software, 4)
	badKind.Runtime = Kind("quantum")
	if _, err := Run(prog, badKind); err == nil {
		t.Error("unknown runtime kind accepted")
	}
	badMachine := testConfig(Software, 4)
	badMachine.Machine.Cores = 1
	if _, err := Run(prog, badMachine); err == nil {
		t.Error("single-core machine accepted")
	}
	badDMU := testConfig(TDM, 4)
	badDMU.DMU.TATEntries = 0
	if _, err := Run(prog, badDMU); err == nil {
		t.Error("invalid DMU config accepted")
	}
}

func TestConfigHelpers(t *testing.T) {
	if !TDM.UsesSoftwareScheduler() || !Software.UsesSoftwareScheduler() {
		t.Error("UsesSoftwareScheduler wrong for TDM/Software")
	}
	if Carbon.UsesSoftwareScheduler() || TaskSuperscalar.UsesSoftwareScheduler() {
		t.Error("UsesSoftwareScheduler wrong for Carbon/TaskSuperscalar")
	}
	if !TDM.UsesDMU() || !TaskSuperscalar.UsesDMU() || Software.UsesDMU() || Carbon.UsesDMU() {
		t.Error("UsesDMU wrong")
	}
	if len(Kinds()) != 4 {
		t.Error("Kinds() should list 4 runtimes")
	}
}

func TestHardwareSchedulersReportFixedPolicy(t *testing.T) {
	prog := independentProgram(6, 20)
	for _, kind := range []Kind{Carbon, TaskSuperscalar} {
		res := mustRun(t, prog, testConfig(kind, 4))
		if res.Scheduler != "hardware-fifo" {
			t.Errorf("%s scheduler label = %q", kind, res.Scheduler)
		}
	}
}

func TestExtraCoreBarelyHelpsSoftwareRuntime(t *testing.T) {
	// Section VI-C: adding a 33rd core to the software runtime changes
	// little because dependence management stays serialized on the master.
	prog := chainsProgram(16, 20, 20)
	base := mustRun(t, prog, testConfig(Software, 8))
	extra := mustRun(t, prog, testConfig(Software, 9))
	gain := float64(base.Cycles)/float64(extra.Cycles) - 1
	if gain > 0.05 {
		t.Fatalf("extra core gained %.1f%% on a creation-bound program; expected marginal", gain*100)
	}
	tdm := mustRun(t, prog, testConfig(TDM, 8))
	tdmGain := float64(base.Cycles)/float64(tdm.Cycles) - 1
	if tdmGain < 2*gain {
		t.Fatalf("TDM gain %.3f should dwarf the extra-core gain %.3f", tdmGain, gain)
	}
}

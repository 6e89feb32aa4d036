package core

import (
	"strings"
	"testing"

	"repro/internal/task"
	"repro/internal/taskrt"
)

// quickConfig shrinks the machine so facade tests stay fast.
func quickConfig(kind taskrt.Kind) Config {
	cfg := DefaultConfig(kind)
	cfg.Machine.Cores = 6
	return cfg
}

func TestDefaultConfigComplete(t *testing.T) {
	cfg := DefaultConfig(TDM)
	if cfg.Machine.Cores != 32 || cfg.Scheduler != "fifo" || !cfg.ValidateOrder {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.DMU.TATEntries != 2048 {
		t.Fatal("DMU defaults not applied")
	}
}

func TestEnumerations(t *testing.T) {
	if len(Schedulers()) != 5 {
		t.Errorf("Schedulers() = %v", Schedulers())
	}
	if len(Runtimes()) != 4 {
		t.Errorf("Runtimes() = %v", Runtimes())
	}
	if len(Benchmarks()) != 9 {
		t.Errorf("Benchmarks() = %v", Benchmarks())
	}
}

func TestRunBenchmarkHistogram(t *testing.T) {
	for _, kind := range []taskrt.Kind{Software, TDM} {
		res, err := RunBenchmark("histogram", quickConfig(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		p, err := ResolveBenchmark("histogram", 0, quickConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		if want := p.Generate().NumTasks(); res.TasksExecuted != want || !res.Complete() {
			t.Errorf("%s: executed %d of %d", kind, res.TasksExecuted, want)
		}
		if res.Energy.EnergyJoules <= 0 || res.Energy.EDP <= 0 {
			t.Errorf("%s: energy estimate missing: %+v", kind, res.Energy)
		}
	}
}

func TestRunBenchmarkUnknownName(t *testing.T) {
	if _, err := RunBenchmark("nope", quickConfig(TDM)); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := RunBenchmarkAt("nope", 1, quickConfig(TDM)); err == nil {
		t.Fatal("unknown benchmark accepted by RunBenchmarkAt")
	}
}

func TestRunBenchmarkAtGranularity(t *testing.T) {
	coarse, err := RunBenchmarkAt("fluidanimate", 32, quickConfig(TDM))
	if err != nil {
		t.Fatal(err)
	}
	fine, err := RunBenchmarkAt("fluidanimate", 64, quickConfig(TDM))
	if err != nil {
		t.Fatal(err)
	}
	if fine.TasksExecuted <= coarse.TasksExecuted {
		t.Fatal("granularity knob did not change the program")
	}
}

func TestRunCustomProgram(t *testing.T) {
	b := task.NewBuilder("custom")
	b.Region(0)
	for i := 0; i < 20; i++ {
		b.Task("stage", 50000).InOut(0xCAFE, 64).Add()
	}
	res, err := Run(b.Build(), quickConfig(TDM))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 20 {
		t.Fatalf("executed %d", res.TasksExecuted)
	}
	if res.DMU == nil {
		t.Fatal("TDM run missing DMU snapshot")
	}
}

func TestRunRejectsBadPowerConfig(t *testing.T) {
	cfg := quickConfig(Software)
	cfg.Power.CoreActiveWatts = 0
	b := task.NewBuilder("p")
	b.Region(0)
	b.Task("t", 1000).Add()
	if _, err := Run(b.Build(), cfg); err == nil {
		t.Fatal("invalid power config accepted")
	}
}

func TestTDMImprovesEDPOnCreationBoundBenchmark(t *testing.T) {
	// The headline claim: TDM improves both execution time and EDP over
	// the software runtime. QR at the software-optimal granularity is
	// strongly creation-bound in this model.
	sw, err := RunBenchmark("qr", quickConfig(Software))
	if err != nil {
		t.Fatal(err)
	}
	tdm, err := RunBenchmark("qr", quickConfig(TDM))
	if err != nil {
		t.Fatal(err)
	}
	if tdm.Cycles >= sw.Cycles {
		t.Fatalf("TDM (%d cycles) not faster than software (%d)", tdm.Cycles, sw.Cycles)
	}
	if tdm.Energy.EDP >= sw.Energy.EDP {
		t.Fatalf("TDM EDP %.4f not below software EDP %.4f", tdm.Energy.EDP, sw.Energy.EDP)
	}
	if tdm.Energy.DMUShare > 0.001 {
		t.Fatalf("DMU energy share %.5f should be negligible", tdm.Energy.DMUShare)
	}
}

func TestAreaHelpers(t *testing.T) {
	cfg := DefaultConfig(TDM)
	rep := DMUArea(cfg)
	if rep.TotalKB < 105 || rep.TotalKB > 106 {
		t.Fatalf("DMU storage = %.2f KB", rep.TotalKB)
	}
	ratio := HardwareComplexityRatio(cfg)
	if ratio < 7.0 || ratio > 7.6 {
		t.Fatalf("complexity ratio = %.2f, want ~7.3", ratio)
	}
	if TaskSuperscalarArea(cfg).TotalKB < 700 {
		t.Fatal("Task Superscalar area implausibly small")
	}
}

func TestDescribe(t *testing.T) {
	if s := Describe(DefaultConfig(TDM)); !strings.Contains(s, "tdm") || !strings.Contains(s, "fifo") {
		t.Fatalf("Describe = %q", s)
	}
	if s := Describe(DefaultConfig(Carbon)); !strings.Contains(s, "hardware scheduling") {
		t.Fatalf("Describe = %q", s)
	}
}

package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/taskrt"
)

// TestTdmsimReportsProgramTasks builds tdmsim and runs histogram on 4 cores
// under the software runtime and TDM. Each run must succeed, and its header
// must report the task count of the program the run simulated.
func TestTdmsimReportsProgramTasks(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "tdmsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	header := regexp.MustCompile(`(?m)^benchmark +histogram \((\d+) tasks, granularity `)
	for _, kind := range []taskrt.Kind{taskrt.Software, taskrt.TDM} {
		out, err := exec.Command(bin, "-benchmark", "histogram", "-cores", "4", "-runtime", string(kind)).CombinedOutput()
		if err != nil {
			t.Fatalf("tdmsim -runtime %s: %v\n%s", kind, err, out)
		}
		m := header.FindSubmatch(out)
		if m == nil {
			t.Fatalf("tdmsim -runtime %s printed no benchmark header:\n%s", kind, out)
		}
		cfg := core.DefaultConfig(kind)
		cfg.Machine.Cores = 4
		p, err := core.ResolveBenchmark("histogram", 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(m[1]), strconv.Itoa(p.Generate().NumTasks()); got != want {
			t.Errorf("tdmsim -runtime %s reports %s tasks, the program has %s", kind, got, want)
		}
	}
}

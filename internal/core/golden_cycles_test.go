package core

// Golden cycle pinning: replaying the committed golden programs on every
// runtime backend must report exactly the same execution time, run after run
// and commit after commit. This is the determinism contract of the simulation
// hot path — any engine or backend change that alters event ordering shows up
// here as a cycle diff. Regenerate with
//
//	go test ./internal/core -run TestGoldenCycles -update-golden
//
// only when a change is *supposed* to alter simulated timing (and say so in
// the commit message).

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/dmu"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/taskrt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_cycles.json with current results")

// goldenPrograms are the committed program snapshots replayed on every
// backend (one per synthetic DAG family).
var goldenPrograms = []string{
	"blockdense.golden.json",
	"chain.golden.json",
	"forkjoin.golden.json",
	"layered.golden.json",
	"pipeline.golden.json",
	"stencil.golden.json",
	"tree.golden.json",
}

// smallDMU is a DMU small enough that blockdense, forkjoin, layered and
// stencil fill it, so their runs exercise the creation-side stall:
// create_task or add_dependence finds no space and the master runs ready
// tasks or waits for capacity. The default DMU never fills on the golden
// programs.
func smallDMU() dmu.Config {
	c := dmu.DefaultConfig()
	c.TATEntries, c.TATAssoc = 8, 4
	c.DATEntries, c.DATAssoc = 16, 4
	c.SLAEntries, c.DLAEntries, c.RLAEntries = 8, 8, 8
	c.ReadyQueueEntries = 8
	return c
}

func TestGoldenCycles(t *testing.T) {
	got := make(map[string]int64)
	for _, file := range goldenPrograms {
		prog, err := task.ReadProgramFile(filepath.Join("..", "task", "testdata", file))
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		for _, kind := range Runtimes() {
			cfg := DefaultConfig(kind)
			res, err := Run(prog, cfg)
			if err != nil {
				t.Fatalf("%s on %s: %v", file, kind, err)
			}
			got[fmt.Sprintf("%s/%s", file, kind)] = res.Cycles
		}
		// On the small DMU, pin the master's DEPS cycles too: the
		// stall is accounted to DEPS, and accounting it to another
		// phase would leave the run's cycles unchanged.
		for _, kind := range []taskrt.Kind{TDM, TaskSuperscalar} {
			cfg := DefaultConfig(kind)
			cfg.DMU = smallDMU()
			res, err := Run(prog, cfg)
			if err != nil {
				t.Fatalf("%s on %s with a small DMU: %v", file, kind, err)
			}
			key := fmt.Sprintf("%s/%s/small-dmu", file, kind)
			got[key] = res.Cycles
			got[key+"/master-deps"] = res.Master.Get(stats.Deps)
		}
	}

	goldenPath := filepath.Join("testdata", "golden_cycles.json")
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]int64, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cycle counts to %s", len(ordered), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden cycles (regenerate with -update-golden): %v", err)
	}
	var want map[string]int64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from run", key)
			continue
		}
		if g != w {
			t.Errorf("%s: simulated cycles = %d, golden %d", key, g, w)
		}
	}
}

// TestGoldenCyclesRepeatable guards against nondeterminism inside a single
// build: two replays of the same program must agree cycle-for-cycle.
func TestGoldenCyclesRepeatable(t *testing.T) {
	prog, err := task.ReadProgramFile(filepath.Join("..", "task", "testdata", "layered.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []taskrt.Kind{TDM, TaskSuperscalar} {
		first, err := Run(prog, DefaultConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := Run(prog, DefaultConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			if again.Cycles != first.Cycles {
				t.Fatalf("%s: run %d reported %d cycles, first run %d", kind, i, again.Cycles, first.Cycles)
			}
		}
	}
}

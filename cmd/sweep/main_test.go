package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/taskrt"
)

// TestDryRunHasNoSideEffects pins the -dry-run contract: combined with
// -store (and -o) it must not create the store directory, the output file, or
// anything else on the filesystem.
func TestDryRunHasNoSideEffects(t *testing.T) {
	parent := t.TempDir()
	storeDir := filepath.Join(parent, "results")
	outFile := filepath.Join(parent, "out.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-dry-run",
		"-store", storeDir,
		"-o", outFile,
		"-benchmarks", "histogram",
		"-runtimes", "software,tdm",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(storeDir); !os.IsNotExist(err) {
		t.Errorf("-dry-run created the store directory: %v", err)
	}
	if _, err := os.Stat(outFile); !os.IsNotExist(err) {
		t.Errorf("-dry-run created the output file: %v", err)
	}
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("-dry-run left files behind: %v", entries)
	}
	if !strings.Contains(stdout.String(), "2 jobs") {
		t.Errorf("dry run output missing job count:\n%s", stdout.String())
	}
	// -dump-program combined with -dry-run must stay side-effect free too.
	dumpDir := filepath.Join(parent, "programs")
	if err := run(context.Background(), []string{
		"-dry-run", "-dump-program", dumpDir, "-benchmarks", "histogram", "-runtimes", "software",
	}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dumpDir); !os.IsNotExist(err) {
		t.Errorf("-dry-run -dump-program created the dump directory: %v", err)
	}
}

// TestRunCancelledContext: a sweep started under a dead context simulates
// nothing and reports the cancellation.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	err := run(ctx, []string{"-benchmarks", "histogram", "-runtimes", "software"}, &stdout, &stderr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("cancelled sweep emitted results:\n%s", stdout.String())
	}
}

// TestHelpIsNotAnError: -h must surface flag.ErrHelp so main can exit 0.
func TestHelpIsNotAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-h"}, &stdout, &stderr)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr.String(), "-benchmarks") {
		t.Errorf("usage output missing flags:\n%s", stderr.String())
	}
}

// daemon serves a sweep service on the CLI's base configuration over HTTP.
// With fleet, the service coordinates two in-process workers.
func daemon(t *testing.T, fleet bool) string {
	t.Helper()
	base := core.DefaultConfig(taskrt.Software)
	srv := service.New(&runner.Engine{Base: base, Store: runner.NewStore()}, 2)
	if fleet {
		srv.RegisterWorker("local-a", &runner.Engine{Base: base}, 1)
		srv.RegisterWorker("local-b", &runner.Engine{Base: base}, 1)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Drain(nil) })
	return ts.URL
}

// sweepOutput runs the CLI and returns its stdout and stderr.
func sweepOutput(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("sweep %v: %v", args, err)
	}
	return stdout.String(), stderr.String()
}

// TestRemoteSweepMatchesLocal: the same grid run in-process and via -remote
// against a daemon, including a daemon coordinating a worker fleet, renders
// byte-identically in every format, and exactly as the rows of an
// engine.RunAll over the grid's jobs render.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	args := []string{"-benchmarks", "histogram", "-runtimes", "software,tdm,carbon", "-schedulers", "fifo,lifo"}
	grid := runner.Grid{
		Benchmarks: []string{"histogram"},
		Runtimes:   []taskrt.Kind{taskrt.Software, taskrt.TDM, taskrt.Carbon},
		Schedulers: []string{"fifo", "lifo"},
	}
	jobs := grid.Jobs()
	eng := &runner.Engine{Base: core.DefaultConfig(taskrt.Software)}
	results, err := eng.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]service.Point, len(jobs))
	for i, j := range jobs {
		scheduler := j.Scheduler
		if j.Runtime == taskrt.Carbon {
			scheduler = "-"
		}
		res := results[i]
		ref[i] = service.Point{
			Key: eng.Key(j), Benchmark: j.Benchmark, Runtime: string(j.Runtime), Scheduler: scheduler,
			Cores: eng.Base.Machine.Cores, Tasks: res.TasksExecuted, Cycles: res.Cycles, Seconds: res.Seconds,
			EnergyJ: res.Energy.EnergyJoules, AvgPowerW: res.Energy.AveragePowerW, EDP: res.Energy.EDP,
		}
	}
	single, fleet := daemon(t, false), daemon(t, true)
	for _, format := range []string{"table", "csv", "json"} {
		var want bytes.Buffer
		if err := emit(&want, format, ref); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-format", format}, args...)
		local, _ := sweepOutput(t, args...)
		remote, _ := sweepOutput(t, append([]string{"-remote", single}, args...)...)
		sharded, _ := sweepOutput(t, append([]string{"-remote", fleet}, args...)...)
		if local != want.String() {
			t.Errorf("%s: local sweep differs from the RunAll rows:\nlocal:\n%s\nRunAll:\n%s", format, local, want.String())
		}
		if remote != local {
			t.Errorf("%s: remote sweep differs from local run:\nlocal:\n%s\nremote:\n%s", format, local, remote)
		}
		if sharded != local {
			t.Errorf("%s: sharded sweep differs from local run:\nlocal:\n%s\nsharded:\n%s", format, local, sharded)
		}
	}
}

// TestRemoteSearchMatchesLocal: a search run in-process and via -remote
// prints the same leaderboard and summary in every format, with the
// objective spelled as the user gave it, and every leaderboard value is the
// cycles engine.RunAll simulates for that grid point.
func TestRemoteSearchMatchesLocal(t *testing.T) {
	args := []string{"-search", "halving", "-objective", "cycles", "-search-seed", "3",
		"-benchmarks", "histogram", "-runtimes", "software,tdm", "-schedulers", "fifo,lifo", "-cores", "4,8,16"}
	url := daemon(t, false)
	for _, format := range []string{"table", "csv", "json"} {
		args := append([]string{"-format", format}, args...)
		local, localErr := sweepOutput(t, args...)
		remote, remoteErr := sweepOutput(t, append([]string{"-remote", url}, args...)...)
		if local != remote || localErr != remoteErr {
			t.Errorf("%s: remote search differs from local run:\nlocal:\n%s%s\nremote:\n%s%s",
				format, localErr, local, remoteErr, remote)
		}
		if format == "table" && !strings.Contains(local, "Search leaderboard (cycles)") {
			t.Errorf("leaderboard title does not carry the objective as given:\n%s", local)
		}
		if format != "json" {
			continue
		}
		var board []service.LeaderboardEntry
		if err := json.Unmarshal([]byte(local), &board); err != nil {
			t.Fatal(err)
		}
		if len(board) == 0 {
			t.Fatal("search ranked no configurations")
		}
		grid := runner.Grid{
			Benchmarks: []string{"histogram"},
			Runtimes:   []taskrt.Kind{taskrt.Software, taskrt.TDM},
			Schedulers: []string{"fifo", "lifo"},
			Cores:      []int{4, 8, 16},
		}
		jobs := grid.Jobs()
		results, err := (&runner.Engine{Base: core.DefaultConfig(taskrt.Software)}).RunAll(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range board {
			if want := float64(results[e.Index].Cycles); e.Value != want {
				t.Errorf("leaderboard %+v: value %g, RunAll simulated %g cycles", e, e.Value, want)
			}
		}
	}
}

// TestRemoteFlagValidation: flag combinations that cannot work remotely are
// rejected up front.
func TestRemoteFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"-remote", "http://localhost:1", "-store", "somewhere"},
		{"-remote", "http://localhost:1", "-replay-program", "prog.json"},
		{"-remote", "http://localhost:1", "-dump-program", "progs/"},
	} {
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) accepted an impossible flag combination", args)
		}
	}
}

// TestRunRejectsBadSpecs: grid validation errors surface before any
// simulation or filesystem work.
func TestRunRejectsBadSpecs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"-benchmarks", "nope"},
		{"-workload", "synth:chain:widht=8"},
		{"-workload", "synth:chain:fanout=2"},
		{"-format", "xml"},
		{"-runtimes", "nope"},
	} {
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) accepted invalid arguments", args)
		}
	}
}

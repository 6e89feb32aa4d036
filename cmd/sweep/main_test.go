package main

import (
	"bytes"
	"context"
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

// TestRemoteSweepMatchesLocal: the same grid run in-process and via
// -remote against a daemon — including a daemon coordinating a worker
// fleet — produces byte-identical output in every format.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	args := []string{"-benchmarks", "histogram", "-runtimes", "software,tdm", "-format", "csv"}

	var local bytes.Buffer
	var stderr bytes.Buffer
	if err := run(context.Background(), args, &local, &stderr); err != nil {
		t.Fatal(err)
	}

	// A single-node daemon: same base configuration as the CLI.
	engine := &runner.Engine{Base: core.DefaultConfig(taskrt.Software), Store: runner.NewStore()}
	srv := service.New(engine, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var remote bytes.Buffer
	if err := run(context.Background(), append([]string{"-remote", ts.URL}, args...), &remote, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Errorf("remote sweep differs from local run:\nlocal:\n%s\nremote:\n%s", local.String(), remote.String())
	}

	// A coordinator sharding across two (in-process) workers must render
	// the same bytes again.
	fleetEngine := &runner.Engine{Base: core.DefaultConfig(taskrt.Software), Store: runner.NewStore()}
	fleet := service.New(fleetEngine, 2)
	fleet.RegisterWorker("local-a", &runner.Engine{Base: fleetEngine.Base}, 1)
	fleet.RegisterWorker("local-b", &runner.Engine{Base: fleetEngine.Base}, 1)
	fts := httptest.NewServer(fleet.Handler())
	defer fts.Close()

	var sharded bytes.Buffer
	if err := run(context.Background(), append([]string{"-remote", fts.URL}, args...), &sharded, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), sharded.Bytes()) {
		t.Errorf("sharded sweep differs from local run:\nlocal:\n%s\nsharded:\n%s", local.String(), sharded.String())
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

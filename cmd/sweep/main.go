// Command sweep runs arbitrary simulation grids: the cartesian product of
// the requested benchmarks, runtime systems, schedulers, core counts and
// granularities is expanded into content-addressed jobs, executed
// concurrently, and reported as a table, CSV or JSON.
//
// Every grid and search sweep runs through the sweep service
// (internal/service), in process on an engine of its own or, with -remote,
// on a sweepd daemon (optionally a coordinator sharding it across a worker
// fleet). Both take the same path from submission to rows, so a remote
// sweep renders byte-identically to an in-process one:
//
//	sweep -remote http://sweepd-host:8080 -benchmarks cholesky -runtimes software,tdm
//
// With -store DIR every result is persisted as a JSON file keyed by its
// content address, so an interrupted sweep resumes warm:
//
//	sweep -store results/ -benchmarks cholesky,qr -runtimes software,tdm \
//	      -schedulers fifo,locality -cores 16,32
//
// Workloads are either the paper's nine benchmarks or synthetic DAG-family
// specs (-workload synth:<family>:<params>, see internal/workloads/synth);
// "synth:all" expands to every family at default parameters. Any workload of
// a sweep can be recorded to a versioned JSON program file (-dump-program)
// and replayed byte-identically in a later sweep (-replay-program). A
// recorded program cannot be submitted to the service, so replay is the one
// path outside it: its jobs run through the engine's RunAllContext.
//
// Examples:
//
//	sweep -list
//	sweep -benchmarks histogram -runtimes tdm -format json
//	sweep -runtimes software,tdm,carbon,tasksuperscalar -o results.csv -format csv
//	sweep -benchmarks cholesky -granularities 16,32,64,128 -dry-run
//	sweep -workload synth:layered:seed=7,width=12,depth=20,density=0.4 -runtimes tdm
//	sweep -workload synth:all -dump-program programs/
//	sweep -replay-program programs/synth_layered.json -runtimes software,tdm
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/taskrt"
	"repro/internal/workloads"
)

// point is the per-job record of the JSON format.
type point struct {
	Key         string  `json:"key"`
	Benchmark   string  `json:"benchmark"`
	Runtime     string  `json:"runtime"`
	Scheduler   string  `json:"scheduler"`
	Cores       int     `json:"cores"`
	Granularity int64   `json:"granularity"`
	Tasks       int     `json:"tasks"`
	Cycles      int64   `json:"cycles"`
	Seconds     float64 `json:"seconds"`
	EnergyJ     float64 `json:"energy_joules"`
	AvgPowerW   float64 `json:"avg_power_watts"`
	EDP         float64 `json:"edp"`
}

func main() {
	// Ctrl-C or SIGTERM cancels the sweep: in-flight simulations stop at
	// their next task boundary, and points already persisted to -store stay
	// warm for the next invocation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Deregister the handler once the first signal has cancelled the
	// context, so a second Ctrl-C force-kills a sweep that is slow to
	// reach its next task boundary.
	context.AfterFunc(ctx, stop)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h printed usage; that is a successful exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run is the whole CLI behind a testable seam: parse args, expand the grid,
// execute, emit. stdout receives results, stderr progress logs.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list          = fs.Bool("list", false, "list workloads, runtimes and schedulers, then exit")
		benchmarks    = fs.String("benchmarks", "", "comma-separated benchmarks (default: all)")
		workload      = fs.String("workload", "", "comma-separated extra workload specs, e.g. synth:layered:seed=7 or synth:all")
		dumpProgram   = fs.String("dump-program", "", "record every workload of the grid as a JSON program file into this directory, then exit")
		replayProgram = fs.String("replay-program", "", "comma-separated program JSON files to replay across the grid instead of generating workloads")
		runtimes      = fs.String("runtimes", "", "comma-separated runtimes (default: all)")
		schedulers    = fs.String("schedulers", "", "comma-separated schedulers (default: fifo)")
		cores         = fs.String("cores", "", "comma-separated core counts (default: 32)")
		granularities = fs.String("granularities", "", "comma-separated granularities, 0 = Table II optimal (default: 0)")
		workers       = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		searchMode    = fs.String("search", "", "design-space search strategy (halving) instead of exhausting the grid; renders a leaderboard")
		objective     = fs.String("objective", "min:cycles", "search objective: [min:|max:]<cycles|seconds|energy|edp|power|latency_p50|latency_p90|latency_p99>")
		budget        = fs.Int("budget", 0, "search evaluation budget in grid points (0 = half the grid)")
		searchRungs   = fs.Int("search-rungs", 0, "search promotion rounds (0 = default)")
		searchSeed    = fs.Int64("search-seed", 0, "search sampling seed (same seed reproduces the search exactly)")
		searchTop     = fs.Int("search-top", 10, "leaderboard rows to render")
		remoteURL     = fs.String("remote", "", "submit the grid to a sweepd daemon at this base URL instead of simulating in-process")
		tenant        = fs.String("tenant", "", "tenant to attribute the remote submission to (requires -remote; daemon default when empty)")
		store         = fs.String("store", "", "directory persisting results as JSON for warm resume")
		format        = fs.String("format", "table", "output format: table, csv or json")
		out           = fs.String("o", "", "write results to a file instead of stdout")
		dryRun        = fs.Bool("dry-run", false, "print the expanded job list without simulating or touching the filesystem")
		verbose       = fs.Bool("v", false, "log per-simulation progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(stdout, "benchmarks: %s\n", strings.Join(workloads.Names(), ", "))
		var kinds []string
		for _, k := range taskrt.Kinds() {
			kinds = append(kinds, string(k))
		}
		fmt.Fprintf(stdout, "runtimes:   %s\n", strings.Join(kinds, ", "))
		fmt.Fprintf(stdout, "schedulers: %s\n", strings.Join(sched.Names(), ", "))
		fmt.Fprintln(stdout, "synthetic families (-workload synth:<family>:key=value,..., or synth:all):")
		for _, line := range workloads.SyntheticFamilies() {
			fmt.Fprintf(stdout, "  %s\n", line)
		}
		return nil
	}

	switch *format {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (table, csv, json)", *format)
	}
	benchList := *benchmarks
	if *workload != "" {
		if benchList != "" {
			benchList += ","
		}
		benchList += *workload
	}
	replayFiles := splitList(*replayProgram)
	if len(replayFiles) > 0 {
		if benchList != "" || *granularities != "" {
			return fmt.Errorf("-replay-program replaces the workload dimension; drop -benchmarks/-workload/-granularities")
		}
		if *dumpProgram != "" {
			return fmt.Errorf("-dump-program and -replay-program are mutually exclusive")
		}
		if *remoteURL != "" {
			return fmt.Errorf("-remote submits a grid; recorded programs cannot be replayed remotely yet")
		}
		// Validate only the non-workload dimensions.
		benchList = ""
	}
	if *remoteURL != "" && *store != "" {
		return fmt.Errorf("-store applies to in-process sweeps (the daemon owns the remote store); drop it with -remote")
	}
	if *searchMode != "" {
		if len(replayFiles) > 0 || *dumpProgram != "" {
			return fmt.Errorf("-search explores a grid; it cannot combine with -replay-program or -dump-program")
		}
	} else if *budget != 0 || *searchRungs != 0 || *searchSeed != 0 {
		return fmt.Errorf("-budget/-search-rungs/-search-seed configure a search; add -search halving")
	}
	if *remoteURL != "" && *dumpProgram != "" {
		return fmt.Errorf("-dump-program records locally generated programs; drop -remote to use it")
	}
	if *tenant != "" && *remoteURL == "" {
		return fmt.Errorf("-tenant attributes a daemon submission; it requires -remote")
	}
	grid, err := buildGrid(benchList, *runtimes, *schedulers, *cores, *granularities)
	if err != nil {
		return err
	}
	var jobs []runner.Job
	if len(replayFiles) > 0 {
		if jobs, err = replayJobs(grid, replayFiles); err != nil {
			return err
		}
	} else {
		jobs = grid.Jobs()
	}
	if len(jobs) == 0 {
		return fmt.Errorf("empty grid")
	}

	engine := &runner.Engine{
		Base:    core.DefaultConfig(taskrt.Software),
		Store:   runner.NewStore(),
		Workers: *workers,
	}
	if *verbose {
		engine.Log = stderr
	}

	// Everything above is side-effect free; a dry run (and a grid-expansion
	// error) must leave the filesystem untouched, so the store directory and
	// output file are only created past this point.
	if *dryRun {
		for _, j := range jobs {
			fmt.Fprintf(stdout, "%s  %s\n", engine.Key(j)[:12], j.Desc())
		}
		fmt.Fprintf(stdout, "%d jobs\n", len(jobs))
		return nil
	}

	if *dumpProgram != "" {
		return dumpPrograms(stdout, *dumpProgram, jobs, engine.Base)
	}

	if *store != "" {
		st, err := runner.NewDiskStore(*store)
		if err != nil {
			return err
		}
		engine.Store = st
	}
	var rows []service.Point
	if len(replayFiles) > 0 {
		results, err := engine.RunAllContext(ctx, jobs)
		if err != nil {
			return err
		}
		for i, j := range jobs {
			rows = append(rows, service.PointOf(i, j, engine.Key(j), engine.Base, results[i], nil))
		}
	} else {
		req := service.SubmitRequest{
			Benchmarks:    grid.Benchmarks,
			Schedulers:    grid.Schedulers,
			Cores:         grid.Cores,
			Granularities: grid.Granularities,
			Tenant:        *tenant,
		}
		for _, k := range grid.Runtimes {
			req.Runtimes = append(req.Runtimes, string(k))
		}
		if *searchMode != "" {
			req.Search = &service.SearchRequest{
				Strategy:  *searchMode,
				Objective: *objective,
				Budget:    *budget,
				Rungs:     *searchRungs,
				Seed:      *searchSeed,
				Top:       *searchTop,
			}
		}
		var sweeper interface {
			Sweep(context.Context, service.SubmitRequest) ([]service.Point, error)
		}
		if *remoteURL != "" {
			if *verbose && *searchMode != "" {
				fmt.Fprintf(stderr, "submitting search over %d grid points to %s\n", len(jobs), *remoteURL)
			} else if *verbose {
				fmt.Fprintf(stderr, "submitting %d points to %s\n", len(jobs), *remoteURL)
			}
			sweeper = &remote.Client{URL: *remoteURL}
		} else {
			srv := service.New(engine, 0)
			// The daemon's ingress limit does not bind a grid the command
			// line runs on its own engine.
			srv.MaxPoints = len(jobs)
			defer srv.Drain(nil)
			sweeper = srv
		}
		if rows, err = sweeper.Sweep(ctx, req); err != nil {
			return err
		}
		if err := context.Cause(ctx); err != nil {
			return err
		}
	}

	// Split result rows from the interleaved leaderboard rows; the last
	// leaderboard row is the search's final ranking.
	var board *service.Point
	var points []service.Point
	for _, p := range rows {
		if p.Row == service.RowLeaderboard {
			board = &p
		} else {
			points = append(points, p)
		}
	}
	// Rows arrive in completion order; the report is in grid order.
	sort.Slice(points, func(i, j int) bool { return points[i].Index < points[j].Index })
	var errs []error
	for _, p := range points {
		switch {
		case p.Cancelled:
			errs = append(errs, fmt.Errorf("%s/%s: cancelled on the daemon: %s", p.Benchmark, p.Runtime, p.Error))
		case p.Error != "" && *searchMode == "":
			// A search ranks around failed points instead of aborting.
			errs = append(errs, errors.New(p.Error))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *searchMode != "" {
		if board == nil {
			return fmt.Errorf("search delivered no leaderboard")
		}
		fmt.Fprintf(stderr, "search evaluated %d of %d grid points (%d saved)\n",
			board.Evaluated, len(jobs), len(jobs)-board.Evaluated)
		return emitLeaderboard(w, *format, *objective, board.Best)
	}
	if len(points) != len(jobs) {
		return fmt.Errorf("sweep delivered %d of %d points", len(points), len(jobs))
	}
	return emit(w, *format, points)
}

// emitLeaderboard renders a search's final ranking in the requested format.
func emitLeaderboard(w io.Writer, format, objective string, entries []service.LeaderboardEntry) error {
	switch format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(entries)
	case "table", "csv":
		t := stats.NewTable("Search leaderboard ("+objective+")",
			"rank", "benchmark", "runtime", "scheduler", "cores", "granularity", "value")
		for i, e := range entries {
			t.AddRowValues(i+1, e.Benchmark, e.Runtime, e.Scheduler, e.Cores,
				e.Granularity, fmt.Sprintf("%.6g", e.Value))
		}
		var err error
		if format == "csv" {
			_, err = fmt.Fprintln(w, t.CSV())
		} else {
			_, err = fmt.Fprintln(w, t.String())
		}
		return err
	default:
		return fmt.Errorf("sweep: unknown format %q (table, csv, json)", format)
	}
}

// replayJobs expands the grid's runtime/scheduler/core dimensions over
// recorded programs instead of generated workloads. Each program file is
// decoded once and shared by every point that replays it.
func replayJobs(grid runner.Grid, files []string) ([]runner.Job, error) {
	// Reuse Grid.Jobs for the hardware-scheduler normalization; the
	// placeholder benchmark never reaches a generator because every job
	// carries an explicit Program.
	grid.Benchmarks = []string{"replay"}
	grid.Granularities = []int64{0}
	templates := grid.Jobs()
	var jobs []runner.Job
	for _, file := range files {
		prog, err := task.ReadProgramFile(file)
		if err != nil {
			return nil, err
		}
		for _, j := range templates {
			j.Benchmark = prog.Name
			j.Program = prog
			j.Label = "replay"
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// dumpPrograms records every distinct workload of the job list as a JSON
// program file under dir (the record half of record/replay).
func dumpPrograms(stdout io.Writer, dir string, jobs []runner.Job, base core.Config) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create dump directory: %w", err)
	}
	type point struct {
		bench string
		gran  int64
	}
	seen := make(map[point]bool)
	count := 0
	for _, j := range jobs {
		bench, err := workloads.ByName(j.Benchmark)
		if err != nil {
			return err
		}
		// Granularity 0 means "optimal", which depends on the runtime
		// class (Table II): benchmarks whose software and TDM optima
		// differ record one program per class so each replay reproduces
		// its direct run exactly.
		gran := j.Granularity
		if gran == 0 {
			gran = bench.OptimalFor(j.Runtime.UsesDMU())
		}
		pt := point{j.Benchmark, gran}
		if seen[pt] {
			continue
		}
		seen[pt] = true
		suffix := j.Granularity
		if suffix == 0 && bench.SWOptimal != bench.TDMOptimal {
			suffix = gran
		}
		prog := bench.Generate(gran, base.Machine)
		path := filepath.Join(dir, programFileName(prog.Name, suffix))
		if err := task.WriteProgramFile(path, prog); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %-60s %6d tasks -> %s\n", prog.Name, prog.NumTasks(), path)
		count++
	}
	fmt.Fprintf(stdout, "%d programs recorded\n", count)
	return nil
}

// programFileName sanitizes a program name into a file name, suffixed with
// the explicit granularity when one was requested.
func programFileName(name string, gran int64) string {
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
	if gran != 0 {
		s += fmt.Sprintf("-g%d", gran)
	}
	return s + ".json"
}

// buildGrid parses the comma-separated dimension flags.
func buildGrid(benchmarks, runtimes, schedulers, cores, granularities string) (runner.Grid, error) {
	g := runner.Grid{
		Benchmarks: splitWorkloads(benchmarks),
		Schedulers: splitList(schedulers),
	}
	for _, r := range splitList(runtimes) {
		g.Runtimes = append(g.Runtimes, taskrt.Kind(r))
	}
	for _, c := range splitList(cores) {
		n, err := strconv.Atoi(c)
		if err != nil || n <= 0 {
			return g, fmt.Errorf("invalid core count %q", c)
		}
		g.Cores = append(g.Cores, n)
	}
	for _, s := range splitList(granularities) {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < 0 {
			return g, fmt.Errorf("invalid granularity %q", s)
		}
		g.Granularities = append(g.Granularities, n)
	}
	return g, g.Validate()
}

// splitWorkloads splits a comma-separated workload list while keeping the
// key=value parameter block of a synth spec attached to its spec: a fragment
// containing "=" continues the previous synthetic spec unless it starts a
// new one.
func splitWorkloads(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		if len(out) > 0 && strings.Contains(part, "=") && !strings.HasPrefix(part, "synth:") {
			out[len(out)-1] += "," + part
			continue
		}
		out = append(out, part)
	}
	return out
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// emit writes the sweep results in the requested format.
func emit(w io.Writer, format string, points []service.Point) error {
	switch format {
	case "json":
		rows := make([]point, len(points))
		for i, p := range points {
			rows[i] = point{
				Key:         p.Key,
				Benchmark:   p.Benchmark,
				Runtime:     p.Runtime,
				Scheduler:   p.Scheduler,
				Cores:       p.Cores,
				Granularity: p.Granularity,
				Tasks:       p.Tasks,
				Cycles:      p.Cycles,
				Seconds:     p.Seconds,
				EnergyJ:     p.EnergyJ,
				AvgPowerW:   p.AvgPowerW,
				EDP:         p.EDP,
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	case "table", "csv":
		t := stats.NewTable("Sweep results",
			"benchmark", "runtime", "scheduler", "cores", "granularity",
			"tasks", "cycles", "seconds", "energy (J)", "EDP")
		for _, p := range points {
			t.AddRowValues(p.Benchmark, p.Runtime, p.Scheduler, p.Cores, p.Granularity,
				p.Tasks, p.Cycles, fmt.Sprintf("%.6f", p.Seconds),
				fmt.Sprintf("%.6f", p.EnergyJ), fmt.Sprintf("%.6g", p.EDP))
		}
		var err error
		if format == "csv" {
			_, err = fmt.Fprintln(w, t.CSV())
		} else {
			_, err = fmt.Fprintln(w, t.String())
		}
		return err
	default:
		return fmt.Errorf("sweep: unknown format %q (table, csv, json)", format)
	}
}

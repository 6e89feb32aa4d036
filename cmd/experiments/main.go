// Command experiments regenerates the figures and tables of the paper's
// evaluation (Sections V and VI). Each experiment prints one or more tables
// whose rows mirror the corresponding figure's data series.
//
// Simulation points run concurrently through the sweep engine
// (internal/runner): each experiment's point set is prewarmed, at most
// -workers simulations at a time, before its tables are assembled, and
// points shared between experiments simulate only once. With -store DIR
// results persist across invocations, so a rerun (or a different experiment
// over the same points) starts warm.
//
// Examples:
//
//	experiments -list
//	experiments -experiment fig12
//	experiments -all -benchmarks cholesky,qr,dedup
//	experiments -all -o results.txt -v
//	experiments -all -workers 16 -store results-cache/
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/runner"
)

func main() {
	// Ctrl-C or SIGTERM cancels the regeneration: in-flight simulations
	// stop at their next task boundary, and points already persisted to
	// -store stay warm for the next invocation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Deregister the handler once the first signal has cancelled the
	// context, so a second Ctrl-C force-kills a run that is slow to reach
	// its next task boundary.
	context.AfterFunc(ctx, stop)
	var (
		list       = flag.Bool("list", false, "list the available experiments and exit")
		experiment = flag.String("experiment", "", "run a single experiment by id (fig2, fig6, ..., tab3)")
		all        = flag.Bool("all", false, "run every experiment")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all nine)")
		cores      = flag.Int("cores", 32, "number of cores")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		out        = flag.String("o", "", "write results to a file instead of stdout")
		verbose    = flag.Bool("v", false, "log per-simulation progress to stderr")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		store      = flag.String("store", "", "directory persisting results as JSON for warm reruns")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}
	if !*all && *experiment == "" {
		fmt.Fprintln(os.Stderr, "experiments: pass -all, -experiment <id>, or -list")
		os.Exit(2)
	}

	opt := experiments.DefaultOptions()
	opt.Machine.Cores = *cores
	opt.Workers = *workers
	if *benchmarks != "" {
		opt.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if *verbose {
		opt.Log = os.Stderr
	}
	if *store != "" {
		st, err := runner.NewDiskStore(*store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		opt.Cache = st
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	run := func(e experiments.Experiment) error {
		fmt.Fprintf(w, "\n######## %s — %s\n\n", e.ID, e.Title)
		// Execute the experiment's simulation points in parallel before
		// assembling its tables sequentially from the warm cache.
		jobs, err := experiments.JobsFor(opt, e)
		if err != nil {
			return err
		}
		if err := experiments.PrewarmContext(ctx, opt, jobs); err != nil {
			return err
		}
		tables, err := e.Run(opt)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if *csv {
				fmt.Fprintf(w, "# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Fprintln(w, t.String())
			}
		}
		return nil
	}

	if *all {
		// Prewarm the deduplicated union of every experiment's points in
		// one parallel sweep, so the per-experiment runs below only see
		// cache hits (no worker barrier at experiment boundaries).
		jobs, err := experiments.JobsFor(opt, experiments.All()...)
		if err == nil {
			err = experiments.PrewarmContext(ctx, opt, jobs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		for _, e := range experiments.All() {
			if err := run(e); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		return
	}
	e, err := experiments.ByID(*experiment)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

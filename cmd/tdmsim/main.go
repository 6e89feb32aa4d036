// Command tdmsim runs one benchmark under one runtime-system configuration
// and prints the timing, phase-breakdown and energy results.
//
// Examples:
//
//	tdmsim -benchmark cholesky -runtime tdm -scheduler locality
//	tdmsim -benchmark dedup -runtime software -cores 16
//	tdmsim -benchmark qr -runtime tasksuperscalar -timeline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/taskrt"
)

func main() {
	var (
		benchmark   = flag.String("benchmark", "cholesky", "benchmark to run ("+strings.Join(core.Benchmarks(), ", ")+")")
		runtime     = flag.String("runtime", "tdm", "runtime system (software, tdm, carbon, tasksuperscalar)")
		scheduler   = flag.String("scheduler", "fifo", "software scheduler ("+strings.Join(core.Schedulers(), ", ")+")")
		cores       = flag.Int("cores", 32, "number of cores")
		granularity = flag.Int64("granularity", 0, "task granularity (0 = Table II optimal for the runtime)")
		latency     = flag.Int("dmu-latency", 1, "DMU structure access latency in cycles")
		timeline    = flag.Bool("timeline", false, "print an ASCII execution timeline")
		showDMU     = flag.Bool("dmu-stats", false, "print DMU structure statistics")
	)
	flag.Parse()

	cfg := core.DefaultConfig(taskrt.Kind(*runtime))
	cfg.Scheduler = *scheduler
	cfg.Machine.Cores = *cores
	cfg.DMU.AccessLatency = *latency
	cfg.RecordTimeline = *timeline

	bench, err := core.ResolveBenchmark(*benchmark, *granularity, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdmsim:", err)
		os.Exit(1)
	}
	prog := bench.Generate()
	res, err := core.Run(prog, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdmsim:", err)
		os.Exit(1)
	}

	fmt.Printf("benchmark      %s (%d tasks, granularity %d %s)\n",
		res.Benchmark, prog.NumTasks(), prog.Granularity, prog.GranularityUnit)
	fmt.Printf("configuration  %s\n", core.Describe(cfg))
	fmt.Printf("execution time %d cycles  (%.3f ms)\n", res.Cycles, res.Seconds*1e3)
	fmt.Printf("energy         %.4f J   avg power %.2f W   EDP %.6f Js\n",
		res.Energy.EnergyJoules, res.Energy.AveragePowerW, res.Energy.EDP)
	fmt.Printf("master         %s\n", res.Master.String())
	fmt.Printf("workers        %s\n", res.Workers.String())
	fmt.Printf("idle fraction  %s   locality hit rate %.1f%%\n",
		stats.Percent(res.IdleFraction()), 100*res.LocalityHitRate)

	if *showDMU && res.DMU != nil {
		s := res.DMU
		fmt.Printf("\nDMU statistics\n")
		fmt.Printf("  ops: create=%d add_dep=%d submit=%d finish=%d get_ready=%d\n",
			s.Ops.CreateOps, s.Ops.AddDepOps, s.Ops.SubmitOps, s.Ops.FinishOps, s.Ops.GetReadyOps)
		fmt.Printf("  in-flight peaks: tasks=%d deps=%d  ready queue peak=%d\n",
			s.Ops.MaxInFlightTasks, s.Ops.MaxInFlightDeps, s.ReadyMaxLen)
		fmt.Printf("  TAT: occupancy max=%d  DAT: occupancy max=%d avg occupied sets=%.1f\n",
			s.TAT.MaxOccupied, s.DAT.MaxOccupied, s.DAT.AvgOccupiedSets)
		for _, la := range s.ListArrays {
			fmt.Printf("  %s: accesses=%d max in use=%d\n", la.Name, la.Accesses, la.MaxInUse)
		}
		fmt.Printf("  total structure accesses: %d\n", s.TotalAccesses)
	}

	if *timeline && res.Timeline != nil {
		fmt.Printf("\nexecution timeline (R=runtime, #=task, .=idle)\n")
		fmt.Print(res.Timeline.ASCII(100))
	}
}

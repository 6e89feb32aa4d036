// Granularity: reproduce the task-granularity trade-off of Figure 6 and
// Table II on one benchmark. Finer tasks expose more parallelism but multiply
// the runtime system's dependence-management work; TDM moves that work to the
// DMU, so its optimal granularity is finer than the software runtime's (for
// Blackscholes, 2 KB blocks instead of 4 KB).
//
//	go run ./examples/granularity
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/workloads"
)

func main() {
	quick := flag.Bool("quick", false, "fewer sweep points (smoke tests)")
	flag.Parse()
	const benchmark = "blackscholes"
	bench, err := workloads.ByName(benchmark)
	if err != nil {
		log.Fatal(err)
	}
	sweep := bench.Sweep
	if *quick {
		sweep = sweep[len(sweep)-2:]
	}

	fmt.Printf("%s: execution time across task granularities (%s)\n\n", benchmark, bench.Unit)
	fmt.Printf("%12s %10s | %-28s | %-28s\n", "granularity", "tasks", "software runtime", "TDM")
	fmt.Printf("%12s %10s | %14s %13s | %14s %13s\n", "", "", "cycles", "vs best", "cycles", "vs best")

	type point struct{ sw, tdm int64 }
	points := make([]point, len(sweep))
	tasks := make([]int, len(sweep))
	bestSW, bestTDM := int64(0), int64(0)
	for i, g := range sweep {
		sw, err := core.RunBenchmarkAt(benchmark, g, core.DefaultConfig(core.Software))
		if err != nil {
			log.Fatal(err)
		}
		tdm, err := core.RunBenchmarkAt(benchmark, g, core.DefaultConfig(core.TDM))
		if err != nil {
			log.Fatal(err)
		}
		points[i] = point{sw: sw.Cycles, tdm: tdm.Cycles}
		tasks[i] = sw.TasksExecuted
		if bestSW == 0 || sw.Cycles < bestSW {
			bestSW = sw.Cycles
		}
		if bestTDM == 0 || tdm.Cycles < bestTDM {
			bestTDM = tdm.Cycles
		}
	}
	for i, g := range sweep {
		fmt.Printf("%12d %10d | %14d %12.3fx | %14d %12.3fx\n",
			g, tasks[i],
			points[i].sw, float64(points[i].sw)/float64(bestSW),
			points[i].tdm, float64(points[i].tdm)/float64(bestTDM))
	}

	fmt.Println("\nWith the software runtime, shrinking the blocks below the optimum makes")
	fmt.Println("task creation the bottleneck; with TDM the dependence management is")
	fmt.Println("offloaded, so finer granularities keep paying off (Table II's optimal")
	fmt.Println("granularity for TDM is one step finer).")
}

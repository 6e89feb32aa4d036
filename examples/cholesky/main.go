// Cholesky: run the tiled Cholesky factorization benchmark (the paper's
// running example, Figure 1) under TDM with each of the five software
// schedulers, and compare them against the software-runtime baseline. This is
// a single-benchmark slice of Figure 12.
//
//	go run ./examples/cholesky
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "fewer schedulers (smoke tests)")
	flag.Parse()
	baselineCfg := core.DefaultConfig(core.Software)
	bench, err := core.ResolveBenchmark("cholesky", 0, baselineCfg)
	if err != nil {
		log.Fatal(err)
	}
	prog := bench.Generate()
	baseline, err := core.Run(prog, baselineCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cholesky: %d tasks of %.0f us average (2048x2048 matrix, 16 KB blocks)\n\n",
		prog.NumTasks(), baselineCfg.Machine.CyclesToMicros(prog.AvgDuration()))
	fmt.Printf("%-22s %14s %9s %9s %12s\n", "configuration", "cycles", "speedup", "EDP", "master DEPS")
	report := func(name string, res *core.Result) {
		fmt.Printf("%-22s %14d %9.3f %9.3f %12s\n",
			name, res.Cycles,
			stats.Speedup(baseline.Cycles, res.Cycles),
			stats.NormalizedEDP(baseline.Energy.EDP, res.Energy.EDP),
			stats.Percent(res.MasterCreationFraction()))
	}
	report("software + fifo", baseline)

	schedulers := core.Schedulers()
	if *quick {
		schedulers = schedulers[:2]
	}
	for _, scheduler := range schedulers {
		cfg := core.DefaultConfig(core.TDM)
		cfg.Scheduler = scheduler
		res, err := core.RunBenchmark("cholesky", cfg)
		if err != nil {
			log.Fatal(err)
		}
		report("tdm + "+scheduler, res)
	}

	fmt.Println("\nThe locality scheduler benefits Cholesky (it reuses the blocks a core")
	fmt.Println("just produced), and every configuration benefits from offloading the")
	fmt.Println("dependence management of ~6000 fine-grained tasks to the DMU.")
}

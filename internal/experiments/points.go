package experiments

// The points enumerations mirror the figure drivers' simulation needs: for
// every experiment they list, as runner jobs, exactly the points the driver
// will request while assembling its tables. Sweeps (RunAll, cmd/experiments,
// bench_test.go) execute the deduplicated union of these points in parallel
// before the drivers run, so the sequential assembly only sees cache hits.
// TestPointsCoverDrivers pins the enumeration to the drivers.

import (
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/taskrt"
)

func pointsFig2(opt Options) ([]runner.Job, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, b := range benches {
		jobs = append(jobs, baseJob(b, taskrt.Software, sched.FIFO))
	}
	return jobs, nil
}

func pointsFig6(opt Options) ([]runner.Job, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, b := range benches {
		if b.Pipeline {
			continue
		}
		for _, g := range b.Sweep {
			jobs = append(jobs, fig6Job(b, g))
		}
	}
	return jobs, nil
}

func pointsFig7(opt Options) ([]runner.Job, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	sizes := fig7Sizes
	var jobs []runner.Job
	for _, b := range benches {
		if !aliasSensitiveBenchmarks[b.Name] {
			continue
		}
		jobs = append(jobs, fig7IdealJob(opt, b))
		for _, tat := range sizes {
			for _, dat := range sizes {
				jobs = append(jobs, fig7SizeJob(opt, b, tat, dat))
			}
		}
	}
	return jobs, nil
}

func pointsFig8(opt Options) ([]runner.Job, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	sizes := fig8Sizes
	var jobs []runner.Job
	for _, b := range benches {
		if !aliasSensitiveBenchmarks[b.Name] {
			continue
		}
		jobs = append(jobs, fig8IdealJob(opt, b))
		for _, size := range sizes {
			jobs = append(jobs, fig8SizeJob(opt, b, size))
		}
	}
	return jobs, nil
}

func pointsFig9(opt Options) ([]runner.Job, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, b := range benches {
		for _, lat := range append([]int{0}, fig9Latencies...) {
			jobs = append(jobs, fig9LatJob(opt, b, lat))
		}
	}
	return jobs, nil
}

func pointsFig10(opt Options) ([]runner.Job, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, b := range benches {
		jobs = append(jobs,
			baseJob(b, taskrt.Software, sched.FIFO),
			baseJob(b, taskrt.TDM, sched.FIFO))
	}
	return jobs, nil
}

func pointsFig11(opt Options) ([]runner.Job, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, b := range benches {
		if !indexBitBenchmarks[b.Name] {
			continue
		}
		for _, bit := range fig11StaticBits {
			jobs = append(jobs, fig11StaticJob(opt, b, bit))
		}
		jobs = append(jobs, baseJob(b, taskrt.TDM, sched.FIFO))
	}
	return jobs, nil
}

func pointsFig12(opt Options) ([]runner.Job, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, b := range benches {
		jobs = append(jobs, baseJob(b, taskrt.Software, sched.FIFO))
		for _, s := range tdmSchedulerColumns {
			jobs = append(jobs,
				baseJob(b, taskrt.Software, s),
				baseJob(b, taskrt.TDM, s))
		}
	}
	return jobs, nil
}

func pointsFig13(opt Options) ([]runner.Job, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, b := range benches {
		jobs = append(jobs,
			baseJob(b, taskrt.Software, sched.FIFO),
			baseJob(b, taskrt.Carbon, sched.FIFO),
			baseJob(b, taskrt.TaskSuperscalar, sched.FIFO))
		for _, s := range tdmSchedulerColumns {
			jobs = append(jobs, baseJob(b, taskrt.TDM, s))
		}
	}
	return jobs, nil
}

func pointsExtraCore(opt Options) ([]runner.Job, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, b := range benches {
		jobs = append(jobs,
			baseJob(b, taskrt.Software, sched.FIFO),
			extraCoreJob(opt, b),
			baseJob(b, taskrt.TDM, sched.FIFO))
	}
	return jobs, nil
}

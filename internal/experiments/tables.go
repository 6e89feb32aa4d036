package experiments

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/taskrt"
)

// TableII reproduces Table II: the number of tasks and the average task
// duration of every benchmark at the granularity selected for the software
// runtime and for TDM. It requires no simulation.
func TableII(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Table II: benchmark characteristics at the optimal granularities",
		"benchmark", "sw tasks", "sw duration (us)", "tdm tasks", "tdm duration (us)")
	var swTasks, swDur, tdmTasks, tdmDur []float64
	for _, b := range benches {
		swProg := b.GenerateOptimal(false, opt.Machine)
		tdmProg := b.GenerateOptimal(true, opt.Machine)
		sd := opt.Machine.CyclesToMicros(swProg.AvgDuration())
		td := opt.Machine.CyclesToMicros(tdmProg.AvgDuration())
		t.AddRowValues(b.Name, swProg.NumTasks(), sd, tdmProg.NumTasks(), td)
		swTasks = append(swTasks, float64(swProg.NumTasks()))
		swDur = append(swDur, sd)
		tdmTasks = append(tdmTasks, float64(tdmProg.NumTasks()))
		tdmDur = append(tdmDur, td)
	}
	t.AddRowValues("Average", stats.Mean(swTasks), stats.Mean(swDur), stats.Mean(tdmTasks), stats.Mean(tdmDur))
	return []*stats.Table{t}, nil
}

// TableIII reproduces Table III: the storage and area requirements of every
// DMU structure for the configured sizes.
func TableIII(opt Options) ([]*stats.Table, error) {
	rep := area.DMUReport(opt.DMU)
	t := stats.NewTable(fmt.Sprintf("Table III: DMU storage and area (%s)", rep.Technology),
		"structure", "storage (KB)", "area (mm^2)")
	for _, e := range rep.Entries {
		t.AddRow(e.Name, fmt.Sprintf("%.2f", e.StorageKB), fmt.Sprintf("%.3f", e.AreaMM2))
	}
	t.AddRow("Total", fmt.Sprintf("%.2f", rep.TotalKB), fmt.Sprintf("%.3f", rep.TotalMM2))
	return []*stats.Table{t}, nil
}

// AreaComparison reproduces the Section VI-C hardware-complexity comparison:
// the DMU against a Task Superscalar pipeline sized for the same number of
// in-flight tasks (the paper reports 7.3x) and against Carbon's hardware
// queues.
func AreaComparison(opt Options) ([]*stats.Table, error) {
	dmuRep := area.DMUReport(opt.DMU)
	tssRep := area.TaskSuperscalarReport(opt.DMU)
	carbonRep := area.CarbonReport(opt.Machine.Cores, 64)
	t := stats.NewTable("Section VI-C: hardware complexity comparison",
		"design", "storage (KB)", "vs TDM")
	t.AddRow("TDM (DMU)", fmt.Sprintf("%.2f", dmuRep.TotalKB), "1.0x")
	t.AddRow("Task Superscalar", fmt.Sprintf("%.2f", tssRep.TotalKB),
		fmt.Sprintf("%.1fx", area.StorageRatio(tssRep, dmuRep)))
	t.AddRow("Carbon", fmt.Sprintf("%.2f", carbonRep.TotalKB),
		fmt.Sprintf("%.2fx", area.StorageRatio(carbonRep, dmuRep)))
	return []*stats.Table{t}, nil
}

// ExtraCore reproduces the Section VI-C observation that giving the software
// runtime one extra core barely helps (0.8% on average in the paper), because
// dependence management stays serialized on the master thread, while TDM's
// improvement on the same core count is far larger.
func ExtraCore(opt Options) ([]*stats.Table, error) {
	benches, err := opt.benchmarks()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Section VI-C: software runtime with %d vs %d cores",
		opt.Machine.Cores, opt.Machine.Cores+1),
		"benchmark", "extra-core speedup", "TDM speedup (same cores)")
	var extraGain, tdmGain []float64
	for _, b := range benches {
		base, err := opt.run(baseJob(b, taskrt.Software, sched.FIFO))
		if err != nil {
			return nil, err
		}
		extra, err := opt.run(extraCoreJob(opt, b))
		if err != nil {
			return nil, err
		}
		tdm, err := opt.run(baseJob(b, taskrt.TDM, sched.FIFO))
		if err != nil {
			return nil, err
		}
		eg := stats.Speedup(base.Cycles, extra.Cycles)
		tg := stats.Speedup(base.Cycles, tdm.Cycles)
		extraGain = append(extraGain, eg)
		tdmGain = append(tdmGain, tg)
		t.AddRowValues(b.Short, eg, tg)
	}
	t.AddRowValues("AVG", stats.GeoMean(extraGain), stats.GeoMean(tdmGain))
	return []*stats.Table{t}, nil
}

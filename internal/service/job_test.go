package service

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dmu"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/taskrt"
	"repro/internal/workloads/synth"
)

func TestJobCodecRoundTrip(t *testing.T) {
	base := core.DefaultConfig(taskrt.Software)
	jobs := []runner.Job{
		{Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO},
		{Benchmark: "cholesky", Runtime: taskrt.TDM, Scheduler: sched.Locality, Cores: 16, Granularity: 64, Label: "grid"},
	}
	for _, j := range jobs {
		data, err := EncodeJob(j)
		if err != nil {
			t.Fatalf("encode %s: %v", j.Desc(), err)
		}
		back, err := DecodeJob(data)
		if err != nil {
			t.Fatalf("decode %s: %v", j.Desc(), err)
		}
		// The decoded job must content-address identically: same point,
		// same store key, on every machine in the fleet.
		if back.Key(base) != j.Key(base) {
			t.Errorf("job %s changed its key across the wire", j.Desc())
		}
	}
}

func TestJobCodecRejectsMutateAndGarbage(t *testing.T) {
	slow := dmu.DefaultConfig()
	slow.AccessLatency = 4
	override := runner.Job{
		Benchmark: "histogram", Runtime: taskrt.Software, Scheduler: sched.FIFO, DMU: &slow,
	}
	if _, err := EncodeJob(override); err == nil {
		t.Error("job with a DMU override encoded silently (the override would be dropped)")
	}
	prog, err := synth.Generate("synth:stencil:width=4,depth=3,mean=10", core.DefaultConfig(taskrt.Software).Machine)
	if err != nil {
		t.Fatal(err)
	}
	replay := runner.Job{Benchmark: prog.Name, Runtime: taskrt.TDM, Scheduler: sched.FIFO, Program: prog, Label: "replay"}
	if _, err := EncodeJob(replay); err == nil {
		t.Error("job with a replay program encoded silently (the program would be dropped)")
	}
	for _, data := range []string{
		`not json`,
		`{"benchmark":"histogram","runtime":"no-such-runtime"}`,
		`{"benchmark":"histogram","runtime":"software","bogus":1}`,
		`{"benchmark":"histogram","runtime":"software","program":{"schema":99}}`,
	} {
		if _, err := DecodeJob([]byte(data)); err == nil {
			t.Errorf("DecodeJob(%q) accepted garbage", data)
		}
	}
}

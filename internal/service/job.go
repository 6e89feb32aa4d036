package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"repro/internal/runner"
	"repro/internal/taskrt"
)

// maxJobBytes bounds one POST /execute body. A wire job is a grid point's
// coordinates, a few hundred bytes; the bound matches the registration and
// tenant bodies.
const maxJobBytes = 1 << 16

// wireJob is the serialized form of a runner.Job: the grid coordinates that
// content-address the point, and nothing else.
type wireJob struct {
	Benchmark   string `json:"benchmark"`
	Runtime     string `json:"runtime"`
	Scheduler   string `json:"scheduler,omitempty"`
	Cores       int    `json:"cores,omitempty"`
	Granularity int64  `json:"granularity,omitempty"`
	Label       string `json:"label,omitempty"`
}

// EncodeJob serializes a grid point for POST /execute. A job carrying a DMU
// override or a replay Program cannot be encoded: dropping either would
// silently simulate a different point than the key promises. The service
// dispatches only Grid.Jobs() points, which carry neither.
func EncodeJob(j runner.Job) ([]byte, error) {
	switch {
	case j.DMU != nil:
		return nil, errors.New("encode job: a job with a DMU override cannot be executed remotely")
	case j.Program != nil:
		return nil, errors.New("encode job: a job with a replay program cannot be executed remotely")
	}
	return json.Marshal(wireJob{
		Benchmark:   j.Benchmark,
		Runtime:     string(j.Runtime),
		Scheduler:   j.Scheduler,
		Cores:       j.Cores,
		Granularity: j.Granularity,
		Label:       j.Label,
	})
}

// DecodeJob deserializes a job encoded by EncodeJob. Unknown fields (a
// replay program among them) and unknown runtimes are rejected.
func DecodeJob(data []byte) (runner.Job, error) {
	var w wireJob
	if err := decodeStrict(bytes.NewReader(data), &w); err != nil {
		return runner.Job{}, fmt.Errorf("decode job: %w", err)
	}
	kind := taskrt.Kind(w.Runtime)
	if !slices.Contains(taskrt.Kinds(), kind) {
		return runner.Job{}, fmt.Errorf("decode job: unknown runtime %q (known: %v)", w.Runtime, taskrt.Kinds())
	}
	return runner.Job{
		Benchmark:   w.Benchmark,
		Runtime:     kind,
		Scheduler:   w.Scheduler,
		Cores:       w.Cores,
		Granularity: w.Granularity,
		Label:       w.Label,
	}, nil
}

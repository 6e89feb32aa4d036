package runner

import (
	"context"

	"repro/internal/core"
)

// RunAllCountingPrograms is RunAll that also returns how many distinct
// programs the call generated, by the core count of their machine.
func (e *Engine) RunAllCountingPrograms(jobs []Job) ([]*core.Result, map[int]int, error) {
	progs := &programMemo{progs: make(map[programKey]*memoProgram)}
	res, err := e.runAll(context.Background(), jobs, progs)
	byCores := make(map[int]int)
	for k := range progs.progs {
		byCores[k.machine.Cores]++
	}
	return res, byCores, err
}

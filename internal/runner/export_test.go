package runner

import (
	"context"

	"repro/internal/core"
)

// RunAllCountingPrograms is RunAll that also returns how many distinct
// programs the call generated, by the core count of their machine.
func (e *Engine) RunAllCountingPrograms(jobs []Job) ([]*core.Result, map[int]int, error) {
	ctx := WithPrograms(context.Background())
	res, err := e.RunAllContext(ctx, jobs)
	return res, ProgramsByCores(ctx), err
}

// ProgramsByCores counts the programs generated under a WithPrograms
// context, by the core count of their machine. A context without a memo
// generated none.
func ProgramsByCores(ctx context.Context) map[int]int {
	byCores := make(map[int]int)
	m, ok := ctx.Value(programsKey{}).(*programMemo)
	if !ok {
		return byCores
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.progs {
		byCores[k.machine.Cores]++
	}
	return byCores
}

// KeyMemoLen returns how many keys the engine's Key memo holds.
func (e *Engine) KeyMemoLen() int {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	return len(e.keys)
}

// Package runner is an errclass-analyzer fixture. errclass has no package
// scope — the classification chain matters repo-wide — so the path only
// mirrors where the real findings live.
package runner

import (
	"fmt"
	"io"
)

// flush stands in for a module-local call whose error carries classification.
func flush() error { return nil }

// Shutdown drops flush's error on the floor.
func Shutdown() {
	flush() // want `error result of flush is dropped`
}

// Deliberate discards explicitly, which is visible at the call site.
func Deliberate() {
	_ = flush()
}

// Stdlib calls are out of scope: their errors carry no classification.
func Stdlib(w io.Writer) {
	fmt.Fprintln(w, "x")
}

// Wrap flattens the chain through %v; the finding names the %w rewrite.
func Wrap(err error) error {
	return fmt.Errorf("flush failed: %v", err) // want `error wrapped with %v flattens the chain`
}

// WrapString flattens harder: the finding asks to wrap the error itself.
func WrapString(err error) error {
	return fmt.Errorf("flush failed: %s", err.Error()) // want `err\.Error\(\) wrapped with %s flattens the chain`
}

// WrapRight already uses %w; errors.Is/As see through it.
func WrapRight(err error) error {
	return fmt.Errorf("flush failed: %w", err)
}

// Describe formats non-errors; %v on an int is fine.
func Describe(n int) error {
	return fmt.Errorf("bad count: %d of %v", n, n)
}

// Probe carries a reasoned allow, so the drop is not reported.
func Probe() {
	flush() //simlint:allow errclass — fixture: best-effort probe, failure is expected and uninformative
}

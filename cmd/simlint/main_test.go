package main

import (
	"strings"
	"testing"
)

// TestList: -list names all eight analyzers and exits 0.
func TestList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{
		"determinism", "obsnames", "apienvelope", "ctxflow",
		"locksafe", "goleak", "hotalloc", "errclass",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestOnlyUnknown: a bogus -only selection is a usage error (exit 2), not a
// silent no-op run.
func TestOnlyUnknown(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "notananalyzer"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown -only exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr %q does not name the unknown analyzer", errOut.String())
	}
}

// TestCleanPackage: a package with no findings exits 0 and prints nothing.
func TestCleanPackage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "obsnames", "repro/internal/obs"}, &out, &errOut); code != 0 {
		t.Fatalf("clean run exited %d, stderr: %s", code, errOut.String())
	}
	if out.String() != "" {
		t.Errorf("clean run printed findings:\n%s", out.String())
	}
}

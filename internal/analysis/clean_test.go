package analysis

import "testing"

// TestSimlintClean runs the full eight-analyzer simlint suite over the whole
// module — the same invocation CI's lint job performs — and fails on any
// unannotated finding. Every intentional exception in the tree must carry a
// reasoned //simlint:allow marker, so a clean run here is an invariant every
// change must preserve.
func TestSimlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	suite := All()
	if len(suite) != 8 {
		t.Fatalf("All() returns %d analyzers, want the full eight-analyzer suite", len(suite))
	}
	names := make(map[string]bool, len(suite))
	for _, a := range suite {
		names[a.Name] = true
	}
	for _, want := range []string{"determinism", "obsnames", "apienvelope", "ctxflow", "locksafe", "goleak", "hotalloc", "errclass"} {
		if !names[want] {
			t.Errorf("All() is missing analyzer %q", want)
		}
	}

	root := moduleRoot(t)
	loader := NewLoader(root)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, err := RunPackages(suite, pkgs)
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	if len(diags) > 0 {
		t.Errorf("simlint is not clean over ./... — fix or annotate:\n%s", FormatDiags(diags))
	}
}

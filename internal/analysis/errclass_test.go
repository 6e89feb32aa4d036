package analysis

import "testing"

func TestErrclass(t *testing.T) {
	RunTest(t, Errclass, "errclass/internal/runner")
}

// TestErrclassUnscoped: the error-classification chain matters everywhere,
// so errclass is the one deep analyzer with no package scope.
func TestErrclassUnscoped(t *testing.T) {
	if Errclass.Scope != nil {
		t.Error("errclass must run repo-wide (nil Scope)")
	}
}

// TestParseFmtVerbs pins which argument each verb consumes, and the
// bail-outs for formats errclass skips.
func TestParseFmtVerbs(t *testing.T) {
	cases := []struct {
		raw       string
		parseable bool
		verbs     []fmtVerb
	}{
		{`"x %v"`, true, []fmtVerb{{argIdx: 0, verb: 'v'}}},
		{`"%d then %s"`, true, []fmtVerb{{argIdx: 0, verb: 'd'}, {argIdx: 1, verb: 's'}}},
		{`"100%% sure: %v"`, true, []fmtVerb{{argIdx: 0, verb: 'v'}}},
		{`"%+v"`, true, []fmtVerb{{argIdx: 0, verb: 'v'}}},
		{`"%8.3f"`, true, []fmtVerb{{argIdx: 0, verb: 'f'}}},
		{`"no verbs"`, true, nil},
		{`"%[1]v"`, false, nil},
		{`"%*d"`, false, nil},
		{`"%.*f"`, false, nil},
	}
	for _, c := range cases {
		verbs, parseable := parseFmtVerbs(c.raw)
		if parseable != c.parseable {
			t.Errorf("parseFmtVerbs(%s): parseable = %v, want %v", c.raw, parseable, c.parseable)
			continue
		}
		if !parseable {
			continue
		}
		if len(verbs) != len(c.verbs) {
			t.Errorf("parseFmtVerbs(%s) = %+v, want %+v", c.raw, verbs, c.verbs)
			continue
		}
		for i := range verbs {
			if verbs[i] != c.verbs[i] {
				t.Errorf("parseFmtVerbs(%s)[%d] = %+v, want %+v", c.raw, i, verbs[i], c.verbs[i])
			}
		}
	}
}

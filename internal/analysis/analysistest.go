package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// RunTest is the analysistest-style harness: it type-checks the testdata
// package at testdata/src/<pkgPath> (which may import real repo packages),
// runs the analyzer over it, and compares the surviving findings against
// `// want "regexp"` comments in the sources. Each want comment expects one
// finding on its own line whose message matches the regexp; multiple quoted
// regexps expect multiple findings. `// want+N "regexp"` expects the finding
// N lines below the comment instead — needed for findings that land on a
// comment-only line, like a malformed //simlint:allow marker. Findings
// without a matching want, and wants without a matching finding, fail the
// test.
//
// Suppression semantics are part of what the harness exercises: findings
// removed by a valid //simlint:allow comment must have no want, and
// malformed allow comments (empty reason, unknown analyzer) surface as
// findings of the "allow" pseudo-analyzer, matchable like any other.
// Fixture packages share one process-wide loader: the first RunTest call
// type-checks the stdlib (body-less) once and every later test reuses those
// dependency packages, instead of paying a full dependency check per test.
var (
	testLoaderOnce sync.Once
	testLoader     *Loader
)

func sharedTestLoader() *Loader {
	testLoaderOnce.Do(func() { testLoader = NewLoader(".") })
	return testLoader
}

func RunTest(t *testing.T, a *Analyzer, pkgPaths ...string) {
	t.Helper()
	loader := sharedTestLoader()
	for _, pkgPath := range pkgPaths {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgPath))
		pkg, err := loader.CheckDir(dir, pkgPath)
		if err != nil {
			t.Fatalf("load %s: %v", pkgPath, err)
		}
		diags, err := RunPackages([]*Analyzer{a}, []*Package{pkg})
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, pkgPath, err)
		}
		wants := collectWants(t, pkg)
		matchWants(t, pkgPath, wants, diags)
		checkGoldenFixed(t, pkg, diags)
	}
}

// checkGoldenFixed replays the surviving findings' suggested fixes and
// compares the result against <source>.golden.fixed files. Every source
// file that receives an edit must have a golden (so repairs are pinned
// byte-for-byte), and every golden must match exactly.
func checkGoldenFixed(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	fixed, err := ApplyFixes(pkg.Fset, diags, os.ReadFile)
	if err != nil {
		t.Fatalf("apply fixes for %s: %v", pkg.PkgPath, err)
	}
	checked := make(map[string]bool)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		golden := name + ".golden.fixed"
		want, err := os.ReadFile(golden)
		if os.IsNotExist(err) {
			checked[name] = true
			if _, hasEdits := fixed[name]; hasEdits {
				t.Errorf("%s: fixes were applied but no %s pins them", name, filepath.Base(golden))
			}
			continue
		}
		if err != nil {
			t.Fatalf("read %s: %v", golden, err)
		}
		checked[name] = true
		got, hasEdits := fixed[name]
		if !hasEdits {
			t.Errorf("%s exists but no finding suggested an edit for %s", filepath.Base(golden), name)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("fixed %s does not match %s:\n%s", name, filepath.Base(golden), UnifiedDiff(filepath.Base(golden), want, got))
		}
	}
	for name := range fixed {
		if !checked[name] {
			// Edits may land in files the analyzer package didn't parse
			// (should not happen for single-package fixtures).
			if _, err := os.Stat(name + ".golden.fixed"); os.IsNotExist(err) {
				t.Errorf("%s: fixes were applied but no golden pins them", name)
			}
		}
	}
}

// want is one expectation parsed from a `// want` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// wantRE pulls the optional line offset and the quoted regexps out of a want
// comment. Both Go-quoted strings and backquoted strings are accepted.
var wantRE = regexp.MustCompile(`//\s*want([+-]\d+)?\s+(.*)$`)

func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				offset := 0
				if m[1] != "" {
					o, err := strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want offset %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					offset = o
				}
				for _, q := range splitQuoted(m[2]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line + offset, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted splits a run of double-quoted or backquoted strings, such as
// "a" "b", into its quoted tokens.
func splitQuoted(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			break
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			break
		}
		tok := s[:end+2]
		if quote == '`' {
			// Normalize backquoted tokens to double-quoted for Unquote.
			tok = strconv.Quote(s[1 : end+1])
		}
		out = append(out, tok)
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

// matchWants pairs findings with expectations line by line.
func matchWants(t *testing.T, pkgPath string, wants []*want, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.used && sameFile(w.file, d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s", pkgPath, d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s: %s:%d: no finding matched want %q", pkgPath, w.file, w.line, w.re)
		}
	}
}

// sameFile compares paths loosely: the loader may render testdata files
// relative or absolute depending on how it was rooted.
func sameFile(a, b string) bool {
	return a == b || filepath.Base(a) == filepath.Base(b)
}

// FormatDiags renders findings one per line (shared by cmd/simlint's output
// and TestSimlintClean's failure message).
func FormatDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}

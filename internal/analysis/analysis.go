// Package analysis is the repository's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, diagnostics, an analysistest-style harness) plus
// the eight repo-specific analyzers cmd/simlint runs.
//
// Four are AST-level:
//
//   - determinism: sim-path packages must not read wall-clock time, draw from
//     unseeded global randomness, or feed map-iteration order into ordered
//     output. The golden-cycles tests pin cycle-for-cycle reproducibility;
//     this analyzer keeps new code from eroding it between test runs.
//   - obsnames: metric registrations must use literal, catalog-conformant
//     names (counters end in _total, wall-clock histograms in _seconds,
//     simulated-time histograms in _cycles) and no two call sites may
//     register the same name.
//   - apienvelope: HTTP error responses in internal/service and
//     internal/remote must flow through the designated helper so every
//     non-2xx carries the documented {"error","code"} envelope.
//   - ctxflow: an exported function that accepts a context.Context must not
//     call the non-Context variant of a function that has one — that is how
//     cancellation plumbing regresses silently.
//
// Four are flow-sensitive, built on the per-function CFG/dataflow layer and
// package-local call graph in cfg.go:
//
//   - locksafe: a sync.Mutex/RWMutex must not be held across a channel
//     operation, sync.WaitGroup.Wait, or an outbound HTTP request in the
//     fleet packages, and pairwise lock-acquisition order must be consistent
//     package-wide.
//   - goleak: a goroutine started in a server-side package must be
//     cancellable — its body receives a context.Context or guards its
//     blocking operations with a done/quit-channel select.
//   - hotalloc: functions marked //simlint:hotpath (and everything they
//     reach through package-local static calls) must not allocate:
//     fmt.Sprint*, un-preallocated append growth in loops, capturing
//     closures, and interface boxing are findings unless they sit on a
//     panic-terminated cold path.
//   - errclass: module-local error results must not be silently dropped, and
//     wrapping an error with %v (or .Error()) breaks errors.Is/As — and with
//     it runner.IsTransient classification — so it is a finding whose
//     message names the %w rewrite.
//
// Findings are suppressed with an annotated marker comment:
//
//	//simlint:allow <analyzer> — <reason>
//
// on (or immediately above) the offending line. The reason is mandatory; an
// empty one is itself a finding, so suppressions stay auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name is the identifier used in findings and //simlint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Scope reports whether the analyzer applies to a package; nil means
	// every package.
	Scope func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// All returns the full simlint suite in reporting order: the four AST-level
// analyzers from the original suite, then the four flow-sensitive ones built
// on the CFG/dataflow layer (cfg.go).
func All() []*Analyzer {
	return []*Analyzer{Determinism, ObsNames, APIEnvelope, CtxFlow, Locksafe, Goleak, Hotalloc, Errclass}
}

// ByName resolves analyzer names (for allow-comment validation and the
// -only flag). It includes AllowName, which the framework itself reports
// malformed suppressions under.
func ByName(name string) bool {
	if name == AllowName {
		return true
	}
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	PkgPath  string

	// metricNames dedups metric registrations across every package of a run;
	// the runner shares one map between obsnames passes. Keys are metric
	// names, values the rendered position of the first registration.
	metricNames map[string]string

	// facts is the package's shared flow cache (CFGs, call graph), built
	// lazily and reused by every analyzer pass over the same package.
	facts *pkgFacts

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// --- suppression comments ---

// AllowName is the pseudo-analyzer malformed //simlint:allow comments are
// reported under (they cannot themselves be suppressed).
const AllowName = "allow"

const allowPrefix = "//simlint:allow"

// allowRange is one parsed //simlint:allow comment: it suppresses the named
// analyzers' findings on its own line and the line directly below (so the
// marker works both as a trailing comment and on its own line above the
// code).
type allowRange struct {
	analyzers []string
	line      int
	used      bool
}

// parseAllows scans a file for //simlint:allow comments, returning the valid
// suppressions and reporting malformed ones (missing reason, unknown
// analyzer) as findings in their own right.
func parseAllows(fset *token.FileSet, file *ast.File) (allows []*allowRange, bad []Diagnostic) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, allowPrefix)
			pos := fset.Position(c.Pos())
			report := func(format string, args ...any) {
				bad = append(bad, Diagnostic{Pos: pos, Analyzer: AllowName, Message: fmt.Sprintf(format, args...)})
			}
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //simlint:allowance — not ours
			}
			names, reason, ok := splitAllow(rest)
			if !ok || len(names) == 0 {
				report("malformed simlint:allow comment: want //simlint:allow <analyzer> — <reason>")
				continue
			}
			if reason == "" {
				report("simlint:allow needs a non-empty reason after the dash")
				continue
			}
			valid := true
			for _, n := range names {
				if !ByName(n) {
					report("simlint:allow names unknown analyzer %q", n)
					valid = false
				}
			}
			if !valid {
				continue
			}
			allows = append(allows, &allowRange{analyzers: names, line: pos.Line})
		}
	}
	return allows, bad
}

// splitAllow parses " det,obs — reason" into analyzer names and the reason.
// Both the em dash and a double hyphen separate names from reason.
func splitAllow(rest string) (names []string, reason string, ok bool) {
	rest = strings.TrimSpace(rest)
	var namePart string
	switch {
	case strings.Contains(rest, "—"):
		namePart, reason, _ = strings.Cut(rest, "—")
	case strings.Contains(rest, "--"):
		namePart, reason, _ = strings.Cut(rest, "--")
	default:
		// No separator at all: names only, empty reason.
		namePart = rest
	}
	for _, n := range strings.Split(namePart, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(reason), true
}

// covers reports whether the allow suppresses a finding by the analyzer on
// the given line.
func (a *allowRange) covers(analyzer string, line int) bool {
	if line != a.line && line != a.line+1 {
		return false
	}
	for _, n := range a.analyzers {
		if n == analyzer {
			return true
		}
	}
	return false
}

// RunPackages applies the analyzers to the packages and returns the
// surviving findings (suppressions applied, malformed suppressions included)
// sorted by position. Packages are analyzed in slice order; obsnames'
// cross-package duplicate detection depends on that order being
// deterministic, which Loader.Load's sort guarantees.
func RunPackages(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	shared := make(map[string]string)
	var all []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		var allows []*allowRange
		for _, f := range pkg.Files {
			a, bad := parseAllows(pkg.Fset, f)
			allows = append(allows, a...)
			raw = append(raw, bad...)
		}
		// One flow cache per package: every analyzer pass below shares the
		// same function CFGs and call graph instead of rebuilding them.
		facts := newPkgFacts(pkg)
		for _, an := range analyzers {
			if an.Scope != nil && !an.Scope(pkg.PkgPath) {
				continue
			}
			pass := &Pass{
				Analyzer:    an,
				Fset:        pkg.Fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				Info:        pkg.Info,
				PkgPath:     pkg.PkgPath,
				metricNames: shared,
				facts:       facts,
			}
			if err := an.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", an.Name, pkg.PkgPath, err)
			}
			raw = append(raw, pass.diags...)
		}
		all = append(all, applyAllows(raw, allows)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return all, nil
}

// applyAllows drops findings covered by a suppression. Malformed-allow
// findings (AllowName) are never droppable.
func applyAllows(diags []Diagnostic, allows []*allowRange) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		if d.Analyzer != AllowName {
			for _, a := range allows {
				if a.covers(d.Analyzer, d.Pos.Line) {
					a.used = true
					suppressed = true
					break
				}
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// --- shared helpers for the analyzers ---

// hasPathSuffix reports whether pkgPath is exactly one of the suffixes or
// ends with "/"+suffix, so matchers work for both the real module layout
// ("repro/internal/sim") and testdata packages ("determinism/internal/sim").
func hasPathSuffix(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// funcObj resolves the called function object of a call expression, looking
// through parentheses. It returns nil for calls of non-functions (type
// conversions, builtins, function-typed variables).
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// isPkgFunc reports whether f is the package-level function pkgPath.name.
func isPkgFunc(f *types.Func, pkgPath, name string) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath && f.Name() == name &&
		f.Type().(*types.Signature).Recv() == nil
}

// enclosingFuncs maps every node inside a function declaration to that
// declaration, so analyzers can exempt designated helpers.
type enclosingFuncs struct {
	decls []*ast.FuncDecl
}

func newEnclosingFuncs(file *ast.File) *enclosingFuncs {
	e := &enclosingFuncs{}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			e.decls = append(e.decls, fd)
		}
	}
	return e
}

// nameAt returns the name of the function declaration containing pos ("" at
// file scope).
func (e *enclosingFuncs) nameAt(pos token.Pos) string {
	for _, fd := range e.decls {
		if fd.Pos() <= pos && pos <= fd.End() {
			return fd.Name.Name
		}
	}
	return ""
}

// metricNameRE is the charset the metric catalog enforces: lower-snake-case,
// starting with a letter.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

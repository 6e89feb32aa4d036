package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Loader resolves and type-checks packages without golang.org/x/tools: it
// shells out to `go list -deps -json` for metadata and runs go/types over the
// sources, type-checking dependency packages with IgnoreFuncBodies so loading
// a leaf package does not pay for full-body checks of the entire standard
// library. One Loader may serve many Load calls; results are cached by import
// path.
type Loader struct {
	// Dir is the working directory for `go list` (the module root, usually).
	Dir string

	// Fset is shared by every package the loader checks, so positions from
	// different packages render consistently.
	Fset *token.FileSet

	mu    sync.Mutex
	meta  map[string]*listPackage // import path -> go list metadata
	pkgs  map[string]*Package     // import path -> checked package
	types map[string]*types.Package
	// full marks analysis targets, whose function bodies must be checked.
	// Fullness is decided before any checking so every package is checked
	// exactly once and type identities stay consistent across importers.
	full map[string]bool

	stats LoaderStats
}

// LoaderStats counts the loader's expensive operations, so the caching
// regression tests can see that dependency packages are type-checked once
// per loader, not once per analyzer run or test.
type LoaderStats struct {
	// TypeChecks is the number of go/types Check invocations (dependency
	// and target packages alike).
	TypeChecks int
	// ParsedFiles is the number of source files parsed.
	ParsedFiles int
}

// Stats returns a snapshot of the loader's operation counters.
func (l *Loader) Stats() LoaderStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Fset    *token.FileSet
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
	Error      *struct{ Err string }
}

// NewLoader creates a loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:   dir,
		Fset:  token.NewFileSet(),
		meta:  make(map[string]*listPackage),
		pkgs:  make(map[string]*Package),
		types: make(map[string]*types.Package),
		full:  make(map[string]bool),
	}
}

// Load resolves the `go list` patterns (e.g. "./...") and returns the matched
// packages, fully type-checked, sorted by import path. Dependencies are
// loaded as needed but not returned.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	roots, err := l.listLocked(patterns)
	if err != nil {
		return nil, err
	}
	sort.Strings(roots)
	// Mark every root before checking any: roots that import each other must
	// both be checked with bodies on first touch.
	for _, path := range roots {
		if pkg, done := l.pkgs[path]; done && pkg.Info == nil {
			return nil, fmt.Errorf("analysis: %s was already loaded as a body-less dependency; use a fresh Loader per Load set", path)
		}
		l.full[path] = true
	}
	out := make([]*Package, 0, len(roots))
	for _, path := range roots {
		pkg, err := l.checkLocked(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// listLocked runs `go list -deps -json` for the patterns, caching every
// package's metadata, and returns the import paths matched by the patterns
// themselves (go list prints those with -deps too; we re-run a plain list to
// learn which ones are roots).
func (l *Loader) listLocked(patterns []string) ([]string, error) {
	if err := l.runList(append([]string{"-deps"}, patterns...)); err != nil {
		return nil, err
	}
	// A second, non-deps pass identifies the root set. It hits the same
	// go list cache, so the cost is negligible next to type checking.
	args := append([]string{"list", "-e"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = goEnv()
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var roots []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			roots = append(roots, line)
		}
	}
	return roots, nil
}

// runList executes `go list -json` with the given extra args and folds every
// returned package into the metadata cache.
func (l *Loader) runList(extra []string) error {
	args := append([]string{"list", "-e", "-json=ImportPath,Dir,Name,GoFiles,Imports,Standard,Error"}, extra...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = goEnv()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	dec := json.NewDecoder(stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("go list: decode: %w", err)
		}
		if _, ok := l.meta[p.ImportPath]; !ok {
			cp := p
			l.meta[p.ImportPath] = &cp
		}
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("go list %s: %w\n%s", strings.Join(extra, " "), err, stderr.String())
	}
	return nil
}

// goEnv pins cgo off so `go list` resolves the pure-Go file sets the type
// checker can handle without a C toolchain.
func goEnv() []string {
	env := exec.Command("go").Environ()
	return append(env, "CGO_ENABLED=0")
}

// checkLocked type-checks the package at path (and, recursively, its
// imports). l.full decides whether function bodies are checked: analysis
// targets need bodies, dependencies only need their package-level API.
func (l *Loader) checkLocked(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{PkgPath: path, Types: types.Unsafe, Fset: l.Fset}, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	full := l.full[path]
	meta, ok := l.meta[path]
	if !ok {
		// Lazily resolve packages outside the original pattern set (testdata
		// packages import repo packages this way).
		if err := l.runList([]string{"-deps", path}); err != nil {
			return nil, err
		}
		if meta, ok = l.meta[path]; !ok {
			return nil, fmt.Errorf("analysis: package %q not found by go list", path)
		}
	}
	if meta.Error != nil {
		return nil, fmt.Errorf("analysis: go list %s: %s", path, meta.Error.Err)
	}
	var files []*ast.File
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", name, err)
		}
		l.stats.ParsedFiles++
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := &types.Config{
		Importer:         importerFunc(func(imp string) (*types.Package, error) { return l.importLocked(imp) }),
		IgnoreFuncBodies: !full,
		// Dependency packages (the stdlib checked from source, mostly) may
		// produce errors we cannot act on; targets must be clean, enforced
		// below through the returned error.
		Error: func(error) {},
	}
	l.stats.TypeChecks++
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if full && err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	pkg := &Package{
		PkgPath: path,
		Dir:     meta.Dir,
		Files:   files,
		Types:   tpkg,
		Fset:    l.Fset,
	}
	if full {
		pkg.Info = info
	}
	l.pkgs[path] = pkg
	l.types[path] = tpkg
	return pkg, nil
}

// importLocked serves the type checker's imports from the cache, checking
// dependencies body-less on first use.
func (l *Loader) importLocked(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if t, ok := l.types[path]; ok {
		return t, nil
	}
	pkg, err := l.checkLocked(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// CheckDir type-checks the single package rooted at dir (every non-test .go
// file in it) under the given import path. It is the entry point the
// analysistest harness uses for testdata packages, which `go list ./...`
// deliberately does not see.
func (l *Loader) CheckDir(dir, pkgPath string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	l.mu.Lock()
	defer l.mu.Unlock()
	var files []*ast.File
	for _, name := range matches {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", name, err)
		}
		l.stats.ParsedFiles++
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := &types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) { return l.importLocked(imp) }),
		Error:    func(error) {},
	}
	l.stats.TypeChecks++
	tpkg, err := cfg.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Fset:    l.Fset,
	}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

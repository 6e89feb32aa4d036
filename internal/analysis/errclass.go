package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Errclass guards the error-classification chain. Two findings, repo-wide:
//
//  1. A call statement that silently drops an error result of a
//     module-local function. Best-effort stdlib calls (Close on a temp
//     file, os.Remove of a scratch path) are deliberately out of scope —
//     the module's own errors carry classification (runner.Transient) and
//     dropping them loses retry decisions, not just log lines.
//  2. fmt.Errorf wrapping an error through %v or %s (or through
//     err.Error()), which flattens the chain: errors.Is/As — and with them
//     runner.IsTransient — can no longer see the cause. The message names
//     the rewrite: the verb becomes %w (and the .Error() call goes).
var Errclass = &Analyzer{
	Name: "errclass",
	Doc:  "dropped module-local error results, and %v/%s wrapping that breaks errors.Is/As",
	Run:  runErrclass,
}

func runErrclass(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkDroppedError(pass, n)
			case *ast.CallExpr:
				checkErrorWrap(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDroppedError flags `f(...)` statements whose module-local callee
// returns an error nobody looks at.
func checkDroppedError(pass *Pass, stmt *ast.ExprStmt) {
	call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
	if !ok {
		return
	}
	f := funcObj(pass.Info, call)
	if f == nil || !sameModule(f, pass.PkgPath) {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			pass.Reportf(stmt.Pos(), "error result of %s is dropped; handle it or assign it to _ so the discard is deliberate", f.Name())
			return
		}
	}
}

// sameModule reports whether f's package shares a module root (first import
// path segment) with the analyzed package — "our code", whose errors carry
// classification the caller is expected to propagate.
func sameModule(f *types.Func, pkgPath string) bool {
	if f.Pkg() == nil {
		return false
	}
	return firstPathSeg(f.Pkg().Path()) == firstPathSeg(pkgPath)
}

func firstPathSeg(p string) string {
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}

func isErrorType(t types.Type) bool {
	return types.Implements(t, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

// checkErrorWrap flags fmt.Errorf calls that pass an error (or its
// .Error() string) to a %v/%s verb.
func checkErrorWrap(pass *Pass, call *ast.CallExpr) {
	f := funcObj(pass.Info, call)
	if !isPkgFunc(f, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	verbs, parseable := parseFmtVerbs(lit.Value)
	if !parseable {
		return
	}
	for _, v := range verbs {
		if v.verb != 'v' && v.verb != 's' {
			continue
		}
		argIdx := 1 + v.argIdx
		if argIdx >= len(call.Args) {
			continue
		}
		arg := call.Args[argIdx]
		tv := pass.Info.Types[arg]
		switch {
		case tv.Type != nil && !tv.IsNil() && isErrorType(tv.Type):
			pass.Reportf(arg.Pos(), "error wrapped with %%%c flattens the chain: errors.Is/As (and runner.IsTransient) cannot see the cause; wrap with %%w", v.verb)
		case isErrorStringCall(pass.Info, arg):
			pass.Reportf(arg.Pos(), "err.Error() wrapped with %%%c flattens the chain: errors.Is/As (and runner.IsTransient) cannot see the cause; wrap the error itself with %%w", v.verb)
		}
	}
}

// isErrorStringCall matches `e.Error()` where e is an error value.
func isErrorStringCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	t := info.Types[sel.X].Type
	return t != nil && isErrorType(t)
}

// fmtVerb is one argument-consuming verb in a format literal: the verb
// character and the index of the argument it consumes.
type fmtVerb struct {
	argIdx int
	verb   byte
}

// parseFmtVerbs scans the raw source text of a format string literal, quotes
// included. Dynamic widths (%*d) and explicit argument indexes (%[1]v)
// return parseable=false: they change which argument a verb consumes, and
// errclass skips such a format rather than pair a verb with the wrong
// argument, so a %v wrap in one is not reported.
func parseFmtVerbs(raw string) (verbs []fmtVerb, parseable bool) {
	if len(raw) < 2 {
		return nil, false
	}
	body := raw[1 : len(raw)-1]
	arg := 0
	for i := 0; i < len(body); i++ {
		if body[i] != '%' {
			continue
		}
		j := i + 1
		if j < len(body) && body[j] == '%' {
			i = j
			continue
		}
		for j < len(body) && strings.IndexByte("+-# 0", body[j]) >= 0 {
			j++
		}
		if j < len(body) && body[j] == '[' {
			return nil, false
		}
		for j < len(body) && body[j] >= '0' && body[j] <= '9' {
			j++
		}
		if j < len(body) && body[j] == '*' {
			return nil, false
		}
		if j < len(body) && body[j] == '.' {
			j++
			if j < len(body) && body[j] == '*' {
				return nil, false
			}
			for j < len(body) && body[j] >= '0' && body[j] <= '9' {
				j++
			}
		}
		if j >= len(body) {
			break
		}
		verbs = append(verbs, fmtVerb{argIdx: arg, verb: body[j]})
		arg++
		i = j
	}
	return verbs, true
}

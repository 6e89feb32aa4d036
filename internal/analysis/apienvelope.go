package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// envelopeHelpers are the designated error writers: Server.httpError renders
// the documented {"error","code"} envelope for every route, the fleet
// protocol's POST /execute included. Only these may touch raw
// status-writing primitives.
var envelopeHelpers = map[string]bool{
	"httpError": true,
}

// APIEnvelope forbids raw HTTP error responses in internal/service and
// internal/remote: calls to http.Error and WriteHeader with a constant 4xx
// or 5xx status outside the designated helpers. Every error response must
// flow through the helper so it carries the documented error-code envelope
// (README "HTTP API v1 reference") and is logged with its correlation ID.
var APIEnvelope = &Analyzer{
	Name:  "apienvelope",
	Doc:   "route every HTTP error response through the envelope helper (httpError)",
	Scope: func(pkgPath string) bool { return hasPathSuffix(pkgPath, "internal/service", "internal/remote") },
	Run:   runAPIEnvelope,
}

func runAPIEnvelope(pass *Pass) error {
	for _, file := range pass.Files {
		encl := newEnclosingFuncs(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if envelopeHelpers[encl.nameAt(call.Pos())] {
				return true
			}
			if f := funcObj(pass.Info, call); isPkgFunc(f, "net/http", "Error") {
				pass.Reportf(call.Pos(), "raw http.Error bypasses the error envelope; use the httpError helper so the response carries a catalog code")
				return true
			}
			if status, ok := errorStatusArg(pass.Info, call); ok {
				pass.Reportf(call.Pos(), "WriteHeader(%d) outside the envelope helper: error statuses must go through httpError so the body carries a catalog code", status)
			}
			return true
		})
	}
	return nil
}

// errorStatusArg matches a WriteHeader method call whose argument is a
// constant >= 400.
func errorStatusArg(info *types.Info, call *ast.CallExpr) (int64, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
		return 0, false
	}
	// Any method named WriteHeader counts: the concrete receiver is usually
	// an http.ResponseWriter implementation or a wrapper embedding one.
	if f, ok := info.Uses[sel.Sel].(*types.Func); !ok || f.Type().(*types.Signature).Recv() == nil {
		return 0, false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	status, ok := constant.Int64Val(tv.Value)
	if !ok || status < 400 {
		return 0, false
	}
	return status, true
}

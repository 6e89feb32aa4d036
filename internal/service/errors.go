package service

import (
	"errors"
	"fmt"
	"net/http"
)

// Machine-readable error codes: every non-2xx response from the API carries
// exactly one of these in its envelope (see ErrorResponse). The README's API
// reference documents the catalog.
const (
	// CodeInvalidParam: a query parameter failed validation (?stream=,
	// ?limit=, ?after=).
	CodeInvalidParam = "invalid_param"
	// CodeInvalidBody: the request body is not the expected JSON document.
	CodeInvalidBody = "invalid_body"
	// CodeInvalidGrid: the submitted grid names unknown benchmarks,
	// runtimes or schedulers, or expands to nothing.
	CodeInvalidGrid = "invalid_grid"
	// CodeGridTooLarge: the grid expansion exceeds the daemon's -max-points.
	CodeGridTooLarge = "grid_too_large"
	// CodeBodyTooLarge: the request body exceeds the daemon's byte limit.
	CodeBodyTooLarge = "body_too_large"
	// CodeInvalidSearch: the "search" stanza failed validation (unknown
	// strategy or objective metric, negative budgets).
	CodeInvalidSearch = "invalid_search"
	// CodeInvalidTenant: the tenant name or tenant configuration is invalid.
	CodeInvalidTenant = "invalid_tenant"
	// CodeInvalidWorker: the worker registration body is invalid.
	CodeInvalidWorker = "invalid_worker"
	// CodePointFailed: the point sent to POST /execute failed on this node
	// (unknown benchmark, simulation error); retrying elsewhere would fail
	// the same way.
	CodePointFailed = "point_failed"
	// CodeNotFound: no such sweep, tenant, or cached result.
	CodeNotFound = "not_found"
	// CodeQuotaExceeded: the tenant is over an admission quota; the envelope
	// carries tenant, quota and limit.
	CodeQuotaExceeded = "quota_exceeded"
	// CodeDraining: the daemon is shutting down and rejects new work.
	CodeDraining = "draining"
	// CodeNotImplemented: the daemon is not configured for the operation
	// (e.g. dynamic worker registration without a factory).
	CodeNotImplemented = "not_implemented"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// ErrorResponse is the uniform error envelope every non-2xx API response
// carries: a human-readable message, a machine-readable code from the
// catalog above, and an optional detail line. Quota rejections additionally
// carry the tenant, the tripped quota and its limit (top-level, so existing
// schedulers keep decoding them).
type ErrorResponse struct {
	Error  string `json:"error"`
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Quota  string `json:"quota,omitempty"`
	Limit  int    `json:"limit,omitempty"`
}

// apiError attaches an envelope code (and optional detail) to an error on
// its way to httpError.
type apiError struct {
	code   string
	detail string
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

// coded wraps err with an envelope code.
func coded(code string, err error) error { return &apiError{code: code, err: err} }

// codedf formats a new error carrying an envelope code.
func codedf(code, format string, args ...any) error {
	return coded(code, fmt.Errorf(format, args...))
}

// codeForStatus is the fallback envelope code when the handler did not wrap
// its error with one.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeInvalidParam
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return CodeBodyTooLarge
	case http.StatusTooManyRequests:
		return CodeQuotaExceeded
	case http.StatusNotImplemented:
		return CodeNotImplemented
	case http.StatusServiceUnavailable:
		return CodeDraining
	default:
		return CodeInternal
	}
}

// envelope flattens an error into its response body.
func envelope(status int, err error) ErrorResponse {
	resp := ErrorResponse{Error: err.Error(), Code: codeForStatus(status)}
	var coded *apiError
	if errors.As(err, &coded) {
		resp.Code = coded.code
		resp.Detail = coded.detail
	}
	var quota *quotaError
	if errors.As(err, &quota) {
		resp.Code = CodeQuotaExceeded
		resp.Tenant = quota.Tenant
		resp.Quota = quota.Quota
		resp.Limit = quota.Limit
	}
	return resp
}

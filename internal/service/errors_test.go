package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// do issues one request against the test server and returns the response.
func do(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestV1ErrorEnvelope drives every /v1 API route into its failure modes and
// checks that each non-2xx response carries the unified machine-readable
// envelope: a human message plus a stable code.
func TestV1ErrorEnvelope(t *testing.T) {
	_, ts := searchTestServer(t)
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"submit bad json", "POST", "/v1/sweeps", `{"benchmarks": [`,
			http.StatusBadRequest, CodeInvalidBody},
		{"submit unknown field", "POST", "/v1/sweeps", `{"benchmark": ["histogram"]}`,
			http.StatusBadRequest, CodeInvalidBody},
		{"submit unknown benchmark", "POST", "/v1/sweeps", `{"benchmarks": ["no-such-workload"]}`,
			http.StatusBadRequest, CodeInvalidGrid},
		{"submit bad runtime", "POST", "/v1/sweeps", `{"benchmarks": ["histogram"], "runtimes": ["vaporware"]}`,
			http.StatusBadRequest, CodeInvalidGrid},
		{"submit bad stream flag", "POST", "/v1/sweeps?stream=yes-please", `{"benchmarks": ["histogram"]}`,
			http.StatusBadRequest, CodeInvalidParam},
		{"submit bad tenant", "POST", "/v1/sweeps", `{"benchmarks": ["histogram"], "tenant": "no/slashes"}`,
			http.StatusBadRequest, CodeInvalidTenant},
		{"submit bad search", "POST", "/v1/sweeps", `{"benchmarks": ["histogram"], "search": {"objective": "min:vibes"}}`,
			http.StatusBadRequest, CodeInvalidSearch},
		{"status of unknown sweep", "GET", "/v1/sweeps/s9999", "",
			http.StatusNotFound, CodeNotFound},
		{"stream of unknown sweep", "GET", "/v1/sweeps/s9999/stream", "",
			http.StatusNotFound, CodeNotFound},
		{"cancel of unknown sweep", "POST", "/v1/sweeps/s9999/cancel", "",
			http.StatusNotFound, CodeNotFound},
		{"list bad limit", "GET", "/v1/sweeps?limit=banana", "",
			http.StatusBadRequest, CodeInvalidParam},
		{"list zero limit", "GET", "/v1/sweeps?limit=0", "",
			http.StatusBadRequest, CodeInvalidParam},
		{"list oversized limit", "GET", fmt.Sprintf("/v1/sweeps?limit=%d", MaxListLimit+1), "",
			http.StatusBadRequest, CodeInvalidParam},
		{"list bad cursor", "GET", "/v1/sweeps?after=42", "",
			http.StatusBadRequest, CodeInvalidParam},
		{"result miss", "GET", "/v1/results/no-such-key", "",
			http.StatusNotFound, CodeNotFound},
		{"tenant bad body", "PUT", "/v1/tenants/acme", `{"weight": "heavy"}`,
			http.StatusBadRequest, CodeInvalidBody},
		{"tenant bad name", "PUT", "/v1/tenants/no!bangs", `{"weight": 2}`,
			http.StatusBadRequest, CodeInvalidTenant},
		{"tenant bad weight", "PUT", "/v1/tenants/acme", `{"weight": -1}`,
			http.StatusBadRequest, CodeInvalidTenant},
		{"tenant bad quota", "PUT", "/v1/tenants/acme", `{"max_active_points": -5}`,
			http.StatusBadRequest, CodeInvalidTenant},
		{"worker without factory", "PUT", "/v1/workers", `{"url": "http://w:1", "slots": 2}`,
			http.StatusNotImplemented, CodeNotImplemented},
		{"worker bad body", "PUT", "/v1/workers", `{"url": 7}`,
			http.StatusNotImplemented, CodeNotImplemented},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := do(t, tc.method, ts.URL+tc.path, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "application/json") {
				t.Errorf("content type = %q, want application/json", got)
			}
			er := decode[ErrorResponse](t, resp.Body)
			if er.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", er.Code, tc.wantCode)
			}
			if er.Error == "" {
				t.Error("envelope has an empty error message")
			}
		})
	}
}

// TestBodyTooLargeEnvelope: an oversized submission is a 413 wearing the
// envelope, not a bare connection reset.
func TestBodyTooLargeEnvelope(t *testing.T) {
	srv, ts := searchTestServerRaw(t)
	srv.MaxBodyBytes = 64
	resp := postJSON(t, ts.URL+"/v1/sweeps",
		`{"benchmarks": ["histogram"], "padding": "`+strings.Repeat("x", 256)+`"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	er := decode[ErrorResponse](t, resp.Body)
	if er.Code != CodeBodyTooLarge {
		t.Errorf("code = %q, want %q", er.Code, CodeBodyTooLarge)
	}
}

// TestQuotaEnvelope: quota rejections carry both the envelope code and the
// structured tenant/quota/limit fields clients alert on.
func TestQuotaEnvelope(t *testing.T) {
	_, ts := searchTestServer(t)
	resp := do(t, "PUT", ts.URL+"/v1/tenants/tiny", `{"max_active_points": 1}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant config status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/sweeps",
		`{"benchmarks": ["histogram"], "cores": [2, 4], "tenant": "tiny"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	er := decode[ErrorResponse](t, resp.Body)
	if er.Code != CodeQuotaExceeded {
		t.Errorf("code = %q, want %q", er.Code, CodeQuotaExceeded)
	}
	if er.Tenant != "tiny" || er.Limit != 1 {
		t.Errorf("envelope tenant/limit = %q/%d, want tiny/1", er.Tenant, er.Limit)
	}
}

// TestListPaging: GET /sweeps pages with ?limit= and the ?after= cursor, and
// a bare list stops at the documented default cap.
func TestListPaging(t *testing.T) {
	_, ts := searchTestServer(t)

	// More single-point sweeps than the default page size.
	const n = DefaultListLimit + 5
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp := postJSON(t, ts.URL+"/v1/sweeps", `{"benchmarks": ["histogram"]}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, resp.StatusCode)
		}
		ids = append(ids, decode[SubmitResponse](t, resp.Body).ID)
		resp.Body.Close()
	}

	list := func(query string) []Status {
		t.Helper()
		resp := do(t, "GET", ts.URL+"/v1/sweeps"+query, "")
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list%s status = %d", query, resp.StatusCode)
		}
		return decode[[]Status](t, resp.Body)
	}

	if got := list(""); len(got) != DefaultListLimit {
		t.Errorf("bare list returned %d sweeps, want the default cap %d", len(got), DefaultListLimit)
	}
	page := list("?limit=3")
	if len(page) != 3 {
		t.Fatalf("limit=3 returned %d sweeps", len(page))
	}
	for i, st := range page {
		if st.ID != ids[i] {
			t.Errorf("page[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
	}
	next := list("?limit=3&after=" + page[2].ID)
	if len(next) != 3 {
		t.Fatalf("second page returned %d sweeps", len(next))
	}
	for i, st := range next {
		if st.ID != ids[3+i] {
			t.Errorf("second page[%d] = %s, want %s", i, st.ID, ids[3+i])
		}
	}
	tail := list("?after=" + ids[n-3])
	if len(tail) != 2 {
		t.Errorf("tail after %s returned %d sweeps, want 2", ids[n-3], len(tail))
	}
	// The legacy unprefixed route is gone: it 404s with the standard
	// envelope (and a detail pointing at /v1) like any other unknown path.
	resp := do(t, "GET", ts.URL+"/sweeps?limit=2", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy route status = %d, want 404", resp.StatusCode)
	}
	got := decode[ErrorResponse](t, resp.Body)
	if got.Code != CodeNotFound {
		t.Errorf("legacy route code = %q, want %q", got.Code, CodeNotFound)
	}
	if !strings.Contains(got.Detail, "/v1") {
		t.Errorf("legacy route detail %q does not point at /v1", got.Detail)
	}
}

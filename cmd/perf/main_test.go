package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// statuses maps each benchmark of compare's rows to its status.
func statuses(rows []row) map[string]string {
	out := make(map[string]string, len(rows))
	for _, r := range rows {
		out[r.name] = r.status
	}
	return out
}

// five spreads a median over five runs with a spread of ±2%.
func five(median float64) []float64 {
	return []float64{median * 0.98, median * 0.99, median, median * 1.01, median * 1.02}
}

func TestDiffThresholds(t *testing.T) {
	base := runs{"steady": five(100), "slower": five(100), "faster": five(100), "retired": five(100)}
	head := runs{"steady": five(110), "slower": five(120), "faster": five(50), "added": five(7)}
	want := map[string]string{
		"steady":  steady, // +10% is inside the 15% gate even though the runs separate
		"slower":  regression,
		"faster":  faster,
		"retired": onlyBase,
		"added":   onlyHead,
	}
	if got := statuses(compare(base, head)); !reflect.DeepEqual(got, want) {
		t.Fatalf("statuses = %v, want %v", got, want)
	}
}

// TestDiffZeroOldNs pins the zero and missing baseline: reported, never a
// regression, never an Inf or NaN percentage.
func TestDiffZeroOldNs(t *testing.T) {
	rows := compare(runs{"x": {0, 0, 0, 0, 0}}, runs{"x": five(5), "y": five(5)})
	if got, want := statuses(rows), map[string]string{"x": noBaseline, "y": onlyHead}; !reflect.DeepEqual(got, want) {
		t.Fatalf("statuses = %v, want %v", got, want)
	}
	out, code := runFiles(t, "BenchmarkX-2 \t 10 \t 0 ns/op\n", "BenchmarkX-2 \t 10 \t 5 ns/op\nBenchmarkY-2 \t 10 \t 5 ns/op\n")
	if code != 0 || !strings.Contains(out, noBaseline) || !strings.Contains(out, onlyHead) {
		t.Errorf("exit %d, report:\n%s", code, out)
	}
	for _, bogus := range []string{"Inf", "NaN", "-100"} {
		if strings.Contains(out, bogus) {
			t.Errorf("report has a bogus %s:\n%s", bogus, out)
		}
	}
}

// TestDiffZeroBothSides: zero on both sides is still no-baseline, not a
// division by zero.
func TestDiffZeroBothSides(t *testing.T) {
	rows := compare(runs{"x": {0, 0, 0}}, runs{"x": {0, 0, 0}})
	if len(rows) != 1 || rows[0].status != noBaseline {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestParse(t *testing.T) {
	const out = `goos: linux
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkMicroSimEngine-2     	    3362	    443346 ns/op	      1608 events/op	      2000 sim-cycles/op	   4511157 sim-cycles/s	    4480 B/op	     129 allocs/op
BenchmarkMicroSchedulerThroughput/fifo-2           	   59234	     18165 ns/op	   12696 B/op	     266 allocs/op
BenchmarkMicroSchedulerThroughput/fifo-2           	   59234	     18000 ns/op	   12696 B/op	     266 allocs/op
BenchmarkMicroSearchHalving
    bench_test.go:12: a log line
BenchmarkMicroSearchHalving   	    3222	    473803.5 ns/op	       120.0 points-evaluated/op
BenchmarkOneProc-x   	    10	    7 ns/op
PASS
ok  	repro	12.3s
`
	got, failed, err := parse(strings.NewReader(out))
	if err != nil || failed != nil {
		t.Fatalf("err %v, failed %v", err, failed)
	}
	want := runs{
		"BenchmarkMicroSimEngine":                {443346},
		"BenchmarkMicroSchedulerThroughput/fifo": {18165, 18000},
		"BenchmarkMicroSearchHalving":            {473803.5},
		"BenchmarkOneProc-x":                     {7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse = %v, want %v", got, want)
	}
	if _, _, err := parse(strings.NewReader("BenchmarkX-2 \t 10 \t fast ns/op\n")); err == nil {
		t.Fatal("unparsable ns/op accepted")
	}
}

// TestRunReportsFailedBenchmark pins the failure path: a benchmark that
// calls b.Fatal, on either side, fails the comparison and is named. A FAIL
// line nothing names, as a panicking binary leaves, fails too.
func TestRunReportsFailedBenchmark(t *testing.T) {
	const clean = "BenchmarkFine-2 \t 100 \t 10 ns/op\n"
	const fatal = clean + `--- FAIL: BenchmarkBoom
    bench_test.go:10: boom
BenchmarkSub/fifo-2 	 100 	 11.95 ns/op
--- FAIL: BenchmarkSub/bad
    bench_test.go:16: sub boom
--- FAIL: BenchmarkSub
FAIL
`
	for _, tc := range []struct{ base, head, want string }{
		{clean, fatal, "BenchmarkBoom failed in"},
		{fatal, clean, "BenchmarkSub/bad failed in"},
		{clean, clean + "panic: oops\nFAIL\n", "(unnamed) failed in"},
	} {
		out, code := runFiles(t, tc.base, tc.head)
		if code != 1 || !strings.Contains(out, "FAIL: "+tc.want) {
			t.Errorf("exit %d, want 1 and %q in:\n%s", code, tc.want, out)
		}
	}
	if out, code := runFiles(t, clean, clean); code != 0 {
		t.Errorf("clean inputs: exit %d:\n%s", code, out)
	}
}

// TestGateSeparatesNoiseFromSlowdown feeds the gate A/A-like noise, which it
// must pass, and a 30% slowdown whose runs separate, which it must fail.
func TestGateSeparatesNoiseFromSlowdown(t *testing.T) {
	// At 5 runs per side the exact test separates U <= 4 (p = 12/252) and
	// not U = 5 (p = 19/252); so must the approximation.
	if p := pValue(5, 5, 4); p > alpha || math.Abs(p-12.0/252) > 0.002 {
		t.Errorf("pValue(5, 5, 4) = %v, want about 12/252", p)
	}
	if p := pValue(5, 5, 5); p <= alpha || math.Abs(p-19.0/252) > 0.005 {
		t.Errorf("pValue(5, 5, 5) = %v, want about 19/252", p)
	}
	if p := pValue(2, 2, 0); p <= alpha {
		t.Errorf("pValue(2, 2, 0) = %v separates 2 runs per side", p)
	}
	base := runs{
		// A median +18.7% with runs spreading 49%, and a bimodal benchmark
		// whose runs land in either mode on both sides.
		"spread":  {300, 305, 310, 330, 420},
		"bimodal": {59e3, 60e3, 61e3, 785e3, 790e3},
		"slower":  five(1000),
	}
	head := runs{
		"spread":  {298, 325, 368, 400, 445},
		"bimodal": {60e3, 62e3, 788e3, 792e3, 795e3},
		"slower":  five(1300),
	}
	want := map[string]string{"spread": steady, "bimodal": steady, "slower": regression}
	if got := statuses(compare(base, head)); !reflect.DeepEqual(got, want) {
		t.Fatalf("statuses = %v, want %v", got, want)
	}
}

// TestReportShowsBaseSpread: each row shows the base runs' (max − min) /
// median, and "-" where the base has no median. The spread does not enter
// the verdict: a +23.9% change whose runs separate fails however widely the
// base runs spread.
func TestReportShowsBaseSpread(t *testing.T) {
	base := runs{"wide": {677, 700, 850, 900, 1051}, "tight": five(100)}
	head := runs{"wide": {1000, 1030, 1053, 1060, 1100}, "tight": five(100), "new": five(5)}
	rows := compare(base, head)
	for _, r := range rows {
		want := map[string]float64{"wide": (1051.0 - 677) / 850, "tight": 0.04, "new": 0}[r.name]
		if math.Abs(r.spread-want) > 1e-9 {
			t.Errorf("%s: spread = %v, want %v", r.name, r.spread, want)
		}
	}
	if got := statuses(rows)["wide"]; got != regression {
		t.Errorf("wide: status %s, want %s", got, regression)
	}
	var text [2]string
	for i, side := range []runs{base, head} {
		for _, name := range []string{"wide", "tight", "new"} {
			for _, ns := range side[name] {
				text[i] += fmt.Sprintf("Benchmark%s-2 \t 10 \t %g ns/op\n", name, ns)
			}
		}
	}
	out, code := runFiles(t, text[0], text[1])
	if code != 1 {
		t.Errorf("exit %d, want 1 for the separated +23.9%% change", code)
	}
	for name, cols := range map[string]string{
		"Benchmarkwide":  "+23.9%       44.0%    2/25  REGRESSION",
		"Benchmarktight": "+0.0%        4.0% 12.5/25  ok",
		"Benchmarknew":   "-           -       -  only-head",
	} {
		if !strings.Contains(out, cols) {
			t.Errorf("%s: report lacks %q:\n%s", name, cols, out)
		}
	}
}

// runFiles writes base and head outputs to files and runs the comparison.
func runFiles(t *testing.T, base, head string) (string, int) {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i, text := range []string{base, head} {
		p := filepath.Join(dir, fmt.Sprintf("side%d.txt", i))
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var buf bytes.Buffer
	code := run(&buf, paths[0], paths[1])
	return buf.String(), code
}

package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// testOptions restricts the experiments to two small benchmarks so the whole
// driver suite runs in seconds. The full-scale runs happen through
// cmd/experiments and the repository benchmarks.
func testOptions() Options {
	opt := DefaultOptions()
	opt.Benchmarks = []string{"fluidanimate", "histogram"}
	return opt
}

// sharedOpt lets the drivers reuse each other's simulations within the test
// binary.
var sharedOpt = testOptions()

func findRow(t *stats.Table, first string) []string {
	for _, row := range t.Rows {
		if row[0] == first {
			return row
		}
	}
	return nil
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q as float: %v", s, err)
	}
	return v
}

func TestRegistryAndLookup(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("All() = %d experiments", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := ByID("fig12"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	opt := DefaultOptions()
	opt.Benchmarks = []string{"no-such-benchmark"}
	if _, err := Fig2Breakdown(opt); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFig2Breakdown(t *testing.T) {
	tables, err := Fig2Breakdown(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// Two rows per benchmark plus two AVG rows.
	if len(tbl.Rows) != 2*2+2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Every row's percentages must roughly sum to 100.
	for _, row := range tbl.Rows {
		sum := parseF(t, row[2]) + parseF(t, row[3]) + parseF(t, row[4]) + parseF(t, row[5])
		if sum < 98 || sum > 102 {
			t.Errorf("row %v sums to %.1f%%", row, sum)
		}
	}
}

func TestFig6Granularity(t *testing.T) {
	tables, err := Fig6Granularity(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) < 8 {
		t.Fatalf("expected sweep rows for two benchmarks, got %d", len(tbl.Rows))
	}
	// Normalized times are >= 1 and at least one granularity per benchmark
	// achieves 1.000 (the optimum).
	best := map[string]float64{}
	for _, row := range tbl.Rows {
		v := parseF(t, row[4])
		if v < 0.999 {
			t.Errorf("normalized time below 1: %v", row)
		}
		if cur, ok := best[row[0]]; !ok || v < cur {
			best[row[0]] = v
		}
	}
	for b, v := range best {
		if v > 1.001 {
			t.Errorf("benchmark %s has no granularity at 1.000 (best %.3f)", b, v)
		}
	}
}

func TestTableII(t *testing.T) {
	tables, err := TableII(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	row := findRow(tbl, "histogram")
	if row == nil {
		t.Fatal("histogram row missing")
	}
	if parseF(t, row[1]) != 511 {
		t.Errorf("histogram sw tasks = %s", row[1])
	}
}

func TestTableIIIAndAreaComparison(t *testing.T) {
	tables, err := TableIII(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	total := findRow(tables[0], "Total")
	if total == nil || total[1] != "105.25" {
		t.Fatalf("Table III total = %v", total)
	}
	cmp, err := AreaComparison(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	tss := findRow(cmp[0], "Task Superscalar")
	if tss == nil || !strings.HasPrefix(tss[2], "7.") {
		t.Fatalf("Task Superscalar ratio row = %v", tss)
	}
}

func TestFig7AliasSizing(t *testing.T) {
	tables, err := Fig7AliasSizing(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// Only histogram is in the sensitive set among the test benchmarks:
	// 4 TAT rows plus 4 AVG rows.
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		for _, cell := range row[2:] {
			v := parseF(t, cell)
			if v <= 0 || v > 1.02 {
				t.Errorf("performance out of range in row %v", row)
			}
		}
	}
}

func TestFig8ListArrays(t *testing.T) {
	tables, err := Fig8ListArrays(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	avg := findRow(tbl, "AVG")
	if avg == nil {
		t.Fatal("AVG row missing")
	}
	small := parseF(t, avg[1])
	large := parseF(t, avg[len(avg)-1])
	if large < small-0.001 {
		t.Errorf("larger list arrays slower than smaller: %v", avg)
	}
}

func TestFig9Latency(t *testing.T) {
	tables, err := Fig9Latency(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	avg := findRow(tables[0], "AVG")
	if avg == nil {
		t.Fatal("AVG row missing")
	}
	at1 := parseF(t, avg[1])
	at16 := parseF(t, avg[3])
	if at16 > at1+0.001 {
		t.Errorf("16-cycle DMU faster than 1-cycle DMU: %v", avg)
	}
	if at1 < 0.9 || at1 > 1.001 {
		t.Errorf("1-cycle performance should be near the ideal: %v", avg)
	}
}

func TestFig10CreationTime(t *testing.T) {
	tables, err := Fig10CreationTime(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	for _, row := range tbl.Rows {
		if row[0] == "AVG" {
			continue
		}
		sw := parseF(t, row[1])
		tdm := parseF(t, row[2])
		if tdm >= sw {
			t.Errorf("TDM creation share not reduced for %s: %v", row[0], row)
		}
	}
}

func TestFig11IndexBits(t *testing.T) {
	tables, err := Fig11IndexBits(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	row := findRow(tbl, "hist")
	if row == nil {
		t.Fatal("histogram row missing")
	}
	static0 := parseF(t, row[1])
	dynamic := parseF(t, row[len(row)-1])
	if dynamic <= static0 {
		t.Errorf("dynamic index selection (%.1f sets) not better than static@0 (%.1f sets)", dynamic, static0)
	}
}

func TestFig12And13(t *testing.T) {
	tables, err := Fig12Schedulers(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	speedup, edp := tables[0], tables[1]
	avg := findRow(speedup, "AVG")
	if avg == nil {
		t.Fatal("AVG row missing")
	}
	optSW := parseF(t, avg[1])
	optTDM := parseF(t, avg[len(avg)-1])
	if optTDM < 1.0 {
		t.Errorf("OptTDM average speedup below 1: %v", avg)
	}
	if optTDM < optSW {
		t.Errorf("OptTDM (%.3f) below OptSW (%.3f)", optTDM, optSW)
	}
	edpAvg := findRow(edp, "AVG")
	if parseF(t, edpAvg[len(edpAvg)-1]) > 1.0 {
		t.Errorf("OptTDM normalized EDP above 1: %v", edpAvg)
	}

	cmp, err := Fig13Comparison(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	cmpAvg := findRow(cmp[0], "AVG")
	carbon := parseF(t, cmpAvg[1])
	tdm := parseF(t, cmpAvg[3])
	if tdm < carbon {
		t.Errorf("OptTDM (%.3f) below Carbon (%.3f)", tdm, carbon)
	}
}

func TestExtraCore(t *testing.T) {
	tables, err := ExtraCore(sharedOpt)
	if err != nil {
		t.Fatal(err)
	}
	avg := findRow(tables[0], "AVG")
	if avg == nil {
		t.Fatal("AVG row missing")
	}
	extra := parseF(t, avg[1])
	tdm := parseF(t, avg[2])
	if extra > 1.10 {
		t.Errorf("extra core gains too much: %v", avg)
	}
	if tdm < extra-0.02 {
		t.Errorf("TDM (%.3f) should beat the extra core (%.3f)", tdm, extra)
	}
}

// seedSequentialRunAll replicates the pre-runner execution model: every
// driver runs strictly sequentially in paper order against the shared cache,
// with no parallel prewarm.
func seedSequentialRunAll(opt Options, w io.Writer) error {
	for _, e := range All() {
		if _, err := fmt.Fprintf(w, "\n######## %s — %s\n\n", e.ID, e.Title); err != nil {
			return err
		}
		tables, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, tbl := range tables {
			if _, err := fmt.Fprintln(w, tbl.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestRunAllParallelMatchesSequential pins the determinism contract of the
// sweep engine: the full evaluation produces byte-identical output whether
// the points run strictly sequentially (the seed behaviour), through the
// runner with a single worker, or through the runner with many workers. The
// sequential output itself is pinned by its length and SHA-256, so a
// refactoring of the drivers cannot change a table byte unnoticed.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full RunAll comparison skipped in -short mode")
	}
	var sequential bytes.Buffer
	opt := testOptions()
	if err := seedSequentialRunAll(opt, &sequential); err != nil {
		t.Fatal(err)
	}
	const (
		wantLen    = 6796
		wantDigest = "0504c7e721791f406641e53a028b3188c32ea30928710ecb4db690a3222298d3"
	)
	sum := sha256.Sum256(sequential.Bytes())
	if got := hex.EncodeToString(sum[:]); sequential.Len() != wantLen || got != wantDigest {
		t.Errorf("sequential output is %d bytes with SHA-256 %s, want %d bytes with %s",
			sequential.Len(), got, wantLen, wantDigest)
	}
	for _, workers := range []int{1, 8} {
		opt := testOptions()
		opt.Workers = workers
		var parallel bytes.Buffer
		if err := RunAll(opt, &parallel); err != nil {
			t.Fatal(err)
		}
		if parallel.String() != sequential.String() {
			t.Errorf("workers=%d: parallel RunAll output differs from the sequential run", workers)
		}
	}
}

// TestPointsCoverDrivers pins each experiment's Points enumeration to its
// driver: after prewarming exactly the enumerated points, assembling the
// tables must not trigger any additional simulation.
func TestPointsCoverDrivers(t *testing.T) {
	for _, e := range All() {
		opt := testOptions()
		if e.Points == nil {
			// Table-only experiments must not simulate at all.
			if _, err := e.Run(opt); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if n := opt.Cache.Len(); n != 0 {
				t.Errorf("%s has no Points but simulated %d points", e.ID, n)
			}
			continue
		}
		jobs, err := e.Points(opt)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(jobs) == 0 {
			t.Fatalf("%s: Points enumerated nothing", e.ID)
		}
		if err := Prewarm(opt, jobs); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		warm := opt.Cache.Len()
		if _, err := e.Run(opt); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if n := opt.Cache.Len(); n != warm {
			t.Errorf("%s: driver simulated %d points missing from its Points enumeration", e.ID, n-warm)
		}
	}
}

// TestSharedPointsDeduplicate verifies that the union of all experiments'
// points contains duplicates (the software/FIFO baseline is shared by five
// figures) while the executed set does not.
func TestSharedPointsDeduplicate(t *testing.T) {
	opt := testOptions()
	jobs, err := JobsFor(opt, All()...)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]int)
	eng := opt.engine()
	for _, j := range jobs {
		keys[eng.Key(j)]++
	}
	if len(keys) == len(jobs) {
		t.Error("expected shared points across figures, every job key is unique")
	}
	if err := Prewarm(opt, jobs); err != nil {
		t.Fatal(err)
	}
	if got := opt.Cache.Len(); got != len(keys) {
		t.Errorf("prewarm stored %d results, want %d distinct points", got, len(keys))
	}
}

// TestJobKeysPinned pins the content-addressed key of every point the
// paper's experiments enumerate: the job count, the distinct-key count and a
// SHA-256 over the keys in job order, each followed by a newline. A change to
// how jobs describe their configuration must leave every key as it was, or
// every disk store written before it goes cold.
func TestJobKeysPinned(t *testing.T) {
	opt := DefaultOptions()
	jobs, err := JobsFor(opt, All()...)
	if err != nil {
		t.Fatal(err)
	}
	eng := opt.engine()
	distinct := make(map[string]bool)
	h := sha256.New()
	for _, j := range jobs {
		k := eng.Key(j)
		distinct[k] = true
		fmt.Fprintln(h, k)
	}
	const (
		wantJobs   = 436
		wantKeys   = 297
		wantDigest = "12811ebb1897bb8ae008b3475fdcfde29da4ffa1b8dc60324104f671b3b924c3"
	)
	if len(jobs) != wantJobs || len(distinct) != wantKeys {
		t.Errorf("got %d jobs with %d distinct keys, want %d with %d", len(jobs), len(distinct), wantJobs, wantKeys)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("key digest = %s, want %s", got, wantDigest)
	}
}

// TestPrewarmContextCancelled: a prewarm under a dead context simulates no
// point and reports the cancellation cause.
func TestPrewarmContextCancelled(t *testing.T) {
	opt := testOptions()
	jobs, err := pointList(fig10Points).jobs(opt)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("shutdown")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if err := PrewarmContext(ctx, opt, jobs); !errors.Is(err, cause) {
		t.Fatalf("got %v, want the cancellation cause", err)
	}
	if n := opt.Cache.Len(); n != 0 {
		t.Errorf("prewarm under a dead context cached %d points", n)
	}
}

func TestRunAllWithTinySubset(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll over the drivers is covered by the individual tests in -short mode")
	}
	opt := sharedOpt
	var buf bytes.Buffer
	if err := RunAll(opt, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"fig2", "fig12", "tab3", "area-ratio"} {
		if !strings.Contains(out, "######## "+id) {
			t.Errorf("RunAll output missing section %s", id)
		}
	}
}

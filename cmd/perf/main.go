// Command perf compares two `go test -bench` outputs, a base and a head, and
// fails when the head is slower:
//
//	go run ./cmd/perf BASE.txt HEAD.txt
//
// Each input holds several runs of each benchmark (scripts/bench_ab.sh makes
// five per side); names lose their -GOMAXPROCS suffix and only ns/op counts.
// Per benchmark perf prints both medians, the change, the spread of the base
// runs ((max − min) / median, which shows when a change lies within the
// base's own run-to-run spread; it does not enter the verdict) and U: in how
// many (base run, head run) pairs the base run was slower, ties counting half.
// A benchmark regresses when its median slows by more than 15% and the runs
// separate: a one-sided Mann–Whitney test finds a U that small with at most 5%
// chance between two samples of one distribution (U <= 4 of 25 pairs at 5 runs
// per side; nothing separates below 3 runs). A median-only rule flags A/A runs
// of one binary on a shared host. "faster" is the mirror image. A benchmark on one
// side only, or with a zero base median, is reported and never regresses.
// perf exits 1 on a regression, on a failed benchmark (a "--- FAIL:" or
// "FAIL" line in either input, named in the report) or on an unreadable input.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

const (
	threshold = 0.15 // largest median slowdown that passes
	alpha     = 0.05 // one-sided significance level of the separation test

	// Statuses of a row.
	steady     = "ok"
	regression = "REGRESSION"
	faster     = "faster"
	onlyBase   = "only-base"
	onlyHead   = "only-head"
	noBaseline = "no-baseline" // a zero base median admits no ratio
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perf BASE.txt HEAD.txt")
		os.Exit(2)
	}
	os.Exit(run(os.Stdout, os.Args[1], os.Args[2]))
}

// run compares the outputs at two paths, reports to w and returns the exit code.
func run(w io.Writer, basePath, headPath string) int {
	var sides [2]runs
	var bad []string
	for i, path := range []string{basePath, headPath} {
		data, err := os.ReadFile(path)
		var failed []string
		if err == nil {
			sides[i], failed, err = parse(bytes.NewReader(data))
		}
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", path, err)
			return 1
		}
		for _, name := range failed {
			bad = append(bad, fmt.Sprintf("%s failed in %s", name, path))
		}
	}
	rows := compare(sides[0], sides[1])
	fmt.Fprintf(w, "%-50s %14s %14s %8s %11s %7s  %s\n", "benchmark", "base ns/op", "head ns/op", "delta", "base spread", "U/pairs", "status")
	for _, r := range rows {
		delta, spread, pairs := "-", "-", "-" // no ratio; a side without runs prints median 0
		if r.status != onlyBase && r.status != onlyHead && r.status != noBaseline {
			delta, pairs = fmt.Sprintf("%+.1f%%", (r.head/r.base-1)*100), fmt.Sprintf("%g/%d", r.u, r.pairs)
		}
		if r.base > 0 {
			spread = fmt.Sprintf("%.1f%%", r.spread*100)
		}
		fmt.Fprintf(w, "%-50s %14.1f %14.1f %8s %11s %7s  %s\n", r.name, r.base, r.head, delta, spread, pairs, r.status)
		if r.status == regression {
			bad = append(bad, fmt.Sprintf("%s slowed by more than %.0f%% with separated runs", r.name, threshold*100))
		}
	}
	if len(bad) == 0 {
		fmt.Fprintf(w, "OK: no benchmark slowed by more than %.0f%% with separated runs\n", threshold*100)
		return 0
	}
	fmt.Fprintln(w, "FAIL:", strings.Join(bad, "\nFAIL: "))
	return 1
}

// runs maps a benchmark name to the ns/op of each of its runs.
type runs map[string][]float64

// procsSuffix is the -GOMAXPROCS suffix go test appends to benchmark names.
var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse reads `go test -bench` output: the ns/op of every result line, and
// (sorted, once each) the benchmarks "--- FAIL:" lines name. A FAIL line no
// "--- FAIL:" line explains, such as a panic's, fails "(unnamed)".
func parse(r io.Reader) (runs, []string, error) {
	out := runs{}
	var failed []string
	sawFail := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) >= 3 && f[0] == "---" && f[1] == "FAIL:":
			failed = append(failed, f[2])
		case len(f) > 0 && f[0] == "FAIL":
			sawFail = true
		case len(f) >= 4 && strings.HasPrefix(f[0], "Benchmark"):
			if _, err := strconv.Atoi(f[1]); err != nil {
				continue // benchmark log output, not a result
			}
			for i := 2; i+1 < len(f); i += 2 {
				if f[i+1] != "ns/op" {
					continue
				}
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					return nil, nil, fmt.Errorf("bad ns/op in %q", sc.Text())
				}
				name := procsSuffix.ReplaceAllString(f[0], "")
				out[name] = append(out[name], v)
			}
		}
	}
	if sawFail && len(failed) == 0 {
		failed = append(failed, "(unnamed)")
	}
	slices.Sort(failed)
	return out, slices.Compact(failed), sc.Err()
}

// row is one benchmark's comparison.
type row struct {
	name       string
	base, head float64 // median ns/op, 0 for a side without runs
	spread     float64 // (max − min) / median of the base runs, 0 without a base median
	u          float64 // (base, head) run pairs with the base run slower, ties counting half
	pairs      int
	status     string
}

// compare classifies every benchmark of either side, sorted by name.
func compare(base, head runs) []row {
	var rows []row
	names := slices.Concat(slices.Collect(maps.Keys(base)), slices.Collect(maps.Keys(head)))
	slices.Sort(names)
	for _, name := range slices.Compact(names) {
		b, h := base[name], head[name]
		r := row{name: name, base: median(b), head: median(h), pairs: len(b) * len(h), status: steady}
		if r.base > 0 {
			r.spread = (slices.Max(b) - slices.Min(b)) / r.base
		}
		for _, x := range b {
			for _, y := range h {
				if x > y {
					r.u++
				} else if x == y {
					r.u += 0.5
				}
			}
		}
		switch {
		case len(h) == 0:
			r.status = onlyBase
		case len(b) == 0:
			r.status = onlyHead
		case r.base <= 0:
			r.status = noBaseline
		case r.head > r.base*(1+threshold) && pValue(len(b), len(h), r.u) <= alpha:
			r.status = regression
		case r.head < r.base*(1-threshold) && pValue(len(b), len(h), float64(r.pairs)-r.u) <= alpha:
			r.status = faster
		}
		rows = append(rows, r)
	}
	return rows
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// pValue is the one-sided Mann–Whitney p-value in the normal approximation
// with continuity correction: the probability that, of n base and m head
// runs drawn from one distribution, the base run is the slower one in at most
// u of the n*m pairs. At 5 runs per side it separates U = 4 (exact p 12/252)
// from U = 5 (19/252) as the exact test does.
func pValue(n, m int, u float64) float64 {
	nm := float64(n * m)
	z := (u + 0.5 - nm/2) / math.Sqrt(nm*float64(n+m+1)/12)
	return math.Erfc(-z/math.Sqrt2) / 2
}

// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload in-process, checks every output, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md in this directory):
//
//	paper-cold     regenerate Fig. 12 and Fig. 13 from an empty store
//	service-warm   a closed-loop client streaming sweeps of warm points
//	service-mixed  the same client, fresh and repeated points, disk store
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the timed phase twice, untraced and then traced, reports the tracing
// overhead, runs the per-layer ladder and reports the per-layer metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// setupReps is how many times each pass performs its set-up; setup_s is the
// median.
const setupReps = 3

// buildDir is the checkout-relative directory for build outputs, stores and
// span files.
const buildDir = ".bench_build"

//go:embed reference.json
var referenceJSON []byte

// reference holds the committed output digests.
type reference struct {
	PaperCold struct {
		// TablesSHA256 is the SHA-256 of the rendered Fig. 12 and Fig. 13
		// tables; CyclesSum sums the simulated cycles of their 108 points.
		TablesSHA256 string `json:"tables_sha256"`
		CyclesSum    int64  `json:"cycles_sum"`
	} `json:"paper_cold"`
	// Mixed is the digest of each service-mixed block's fresh (key, cycles)
	// pairs, block by block.
	Mixed []string `json:"service_mixed_blocks"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root
	workers  int    // simulation workers (GOMAXPROCS)
	ref      reference
	out      io.Writer // report lines
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is one set-up plus timed phase.
type pass struct {
	setup  []float64 // seconds per set-up repetition
	ops    int       // sweeps or regenerations attempted
	failed int
	points int // settled points
	segs   []*segment
	cur    *segment
	use    usageDelta
	digest string // simulated results, for the traced/untraced comparison
}

// segment is a slice of the timed phase: one regeneration, or one unit of
// sweeps, with the hypervisor steal the host saw during it.
type segment struct {
	start      time.Time
	jiffies    [8]uint64
	points     int
	rate       float64 // settled points per wall second
	stealPct   float64
	lat, first []float64 // per-op latency and time to first result, ms
}

func (p *pass) beginSegment() { p.cur = &segment{start: time.Now(), jiffies: hostJiffies()} }

func (p *pass) endSegment() {
	s := p.cur
	s.rate = float64(s.points) / time.Since(s.start).Seconds()
	s.stealPct = stealPct(s.jiffies, hostJiffies())
	p.segs = append(p.segs, s)
}

// settle records one op that passed its checks.
func (p *pass) settle(points int, lat, first float64) {
	p.points += points
	p.cur.points += points
	p.cur.lat = append(p.cur.lat, lat)
	p.cur.first = append(p.cur.first, first)
}

// quiet returns the half of the segments (rounded up) during which the host
// stole the least CPU. Steal comes from other tenants of the machine, not
// from the program, and moves wall-clock figures by tens of percent.
func (p *pass) quiet() []*segment {
	segs := slices.Clone(p.segs)
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].stealPct < segs[j].stealPct })
	return segs[:(len(segs)+1)/2]
}

// samples concatenates the segments' per-op samples and rates.
func samples(segs []*segment) (rates, lat, first []float64) {
	for _, s := range segs {
		rates = append(rates, s.rate)
		lat = append(lat, s.lat...)
		first = append(first, s.first...)
	}
	return rates, lat, first
}

// e2e computes the end-to-end metrics of a pass. The wall-clock metrics
// come from the quieter half of its segments; throughput is the median of
// their rates. CPU time and peak RSS cover the whole timed phase.
func (p *pass) e2e() map[string]metric {
	rates, lat, first := samples(p.quiet())
	return map[string]metric{
		"setup_s":             {median(p.setup), "s"},
		"points_per_s":        {median(rates), "1/s"},
		"cpu_ms_per_point":    {ms(p.use.cpu()) / float64(max(1, p.points)), "ms"},
		"latency_ms_p50":      {median(lat), "ms"},
		"latency_ms_p90":      {percentile(lat, 0.90), "ms"},
		"first_result_ms_p50": {median(first), "ms"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
	}
}

type workload interface {
	// pass runs set-up and a timed phase of the given size (one unit is
	// about one second on the reference host), recording spans when tr is
	// non-nil.
	pass(units int, tr *tracer) (*pass, error)
	// ladder runs the per-layer rungs after a traced pass.
	ladder(l *layers, tr *tracer) error
	close()
}

func newWorkload(o *options) (workload, error) {
	switch o.workload {
	case "paper-cold":
		return newPaperCold(o)
	case "service-warm":
		return newServiceWarm(o)
	case "service-mixed":
		if o.seconds > len(o.ref.Mixed) {
			return nil, fmt.Errorf("service-mixed: reference.json commits %d blocks, so --seconds is at most %d", len(o.ref.Mixed), len(o.ref.Mixed))
		}
		return newServiceMixed(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-cold, service-warm or service-mixed)", o.workload)
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "paper-cold, service-warm or service-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "run length; fixes the op count")
	traceN := fs.Int("trace", 0, "1 runs the traced ladder and prints per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traceN != 0 && *traceN != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceN == 1
	o.out = os.Stdout
	if err := json.Unmarshal(referenceJSON, &o.ref); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reference:", err)
		os.Exit(1)
	}
	res, err := run(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o *options) (*result, error) {
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if _, err := os.Stat(filepath.Join(o.root, "go.mod")); err != nil {
		return nil, fmt.Errorf("not a checkout root: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(o.root, buildDir), 0o755); err != nil {
		return nil, err
	}
	o.workers = runtime.GOMAXPROCS(0)
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	fmt.Fprintf(o.out, "# workload %s seed %d seconds %d trace %v workers %d\n", o.workload, o.seed, o.seconds, o.trace, o.workers)
	if !o.trace {
		p, err := w.pass(o.seconds, nil)
		if err != nil {
			return nil, err
		}
		m := p.e2e()
		printE2E(o.out, "untraced", p, m, nil)
		printHost(o, w, p.use)
		return &result{Correct: p.failed == 0, Attempted: p.ops, Failed: p.failed, Metrics: m}, nil
	}

	// Traced: the same timed phase untraced and then traced, at half size
	// each, then the ladder.
	units := max(1, o.seconds/2)
	a, err := w.pass(units, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	b, err := w.pass(units, tr)
	if err != nil {
		return nil, err
	}
	ma, mb := a.e2e(), b.e2e()
	printE2E(o.out, "untraced", a, ma, nil)
	printE2E(o.out, "traced", b, mb, ma)
	failed := a.failed + b.failed
	attempted := a.ops + b.ops
	if a.digest != b.digest {
		fmt.Fprintf(o.out, "# traced and untraced simulated results differ: %s vs %s\n", b.digest, a.digest)
		failed++
	}
	l := &layers{o: o, m: make(map[string]metric)}
	if err := w.ladder(l, tr); err != nil {
		return nil, err
	}
	attempted += l.checked
	failed += l.mismatches
	l.set("trace.overhead_pct", 100*(ma["points_per_s"].Value/mb["points_per_s"].Value-1), "%")
	l.set("runtime.gc_cpu_share", b.use.gcShare, "ratio")
	l.set("host.steal_pct", b.use.stealPct, "%")
	l.set("host.sys_cpu_share", b.use.sysShare(), "ratio")
	printHost(o, w, b.use)
	tr.printSelf(o.out)
	path := filepath.Join(o.root, buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "# spans written to %s\n", path)
	printMetrics(o.out, "per-layer", l.m)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: l.m}, nil
}

func printE2E(w io.Writer, label string, p *pass, m, base map[string]metric) {
	fmt.Fprintf(w, "# %s: %d ops (%d failed, error_rate %.4f), %d points, %.3f s timed, %d set-ups\n",
		label, p.ops, p.failed, float64(p.failed)/float64(max(1, p.ops)), p.points, p.use.wall.Seconds(), len(p.setup))
	quiet := p.quiet()
	_, qlat, _ := samples(quiet)
	rates, lat, _ := samples(p.segs)
	fmt.Fprintf(w, "#   quiet half: %d of %d segments, steal %.1f-%.1f%% (all segments up to %.1f%%)\n",
		len(quiet), len(p.segs), quiet[0].stealPct, quiet[len(quiet)-1].stealPct, maxSteal(p.segs))
	fmt.Fprintf(w, "#   all segments: points_per_s %.4f latency_ms_p50 %.4f latency_ms_p90 %.4f (n=%d)\n",
		median(rates), median(lat), percentile(lat, 0.90), len(lat))
	for _, n := range sortedNames(m) {
		line := fmt.Sprintf("#   %-20s %14.4f %-4s", n, m[n].Value, m[n].Unit)
		switch n {
		case "latency_ms_p50", "latency_ms_p90", "first_result_ms_p50":
			line += fmt.Sprintf(" (n=%d)", len(qlat))
		}
		if base != nil && base[n].Value != 0 {
			line += fmt.Sprintf("  untraced %.4f (%+.1f%%)", base[n].Value, 100*(m[n].Value/base[n].Value-1))
		}
		fmt.Fprintln(w, line)
	}
}

func printMetrics(w io.Writer, label string, m map[string]metric) {
	fmt.Fprintf(w, "# %s metrics\n", label)
	for _, n := range sortedNames(m) {
		fmt.Fprintf(w, "#   %-32s %16.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func printHost(o *options, w workload, u usageDelta) {
	h := newHostBlock(o.root, u)
	if m, ok := w.(*serviceMixed); ok {
		h.StoreFS = m.fs
	}
	line, _ := json.Marshal(h)
	fmt.Fprintf(o.out, "# host %s\n", line)
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func maxSteal(segs []*segment) float64 {
	m := 0.0
	for _, s := range segs {
		m = max(m, s.stealPct)
	}
	return m
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/taskrt"
)

var update = flag.Bool("update", false, "recompute reference.json from the current simulator")

// maxReferenceBlocks bounds --seconds for service-mixed: one committed block
// digest per unit.
const maxReferenceBlocks = 60

// blockDigest simulates every fresh point of a service-mixed block directly
// through the engine and digests its (key, cycles) pairs.
func blockDigest(t *testing.T, b int) string {
	var jobs []runner.Job
	for i := range mixedBlockSpecs {
		for _, rt := range taskrt.Kinds() {
			jobs = append(jobs, runner.Job{Benchmark: mixedSpec(b, i), Runtime: rt})
		}
	}
	eng := &runner.Engine{Base: baseConfig(), Store: runner.NewStore()}
	results, err := eng.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	pts := make(map[string]int64, len(jobs))
	for i, j := range jobs {
		pts[eng.Key(j)] = results[i].Cycles
	}
	return pointsDigest(pts)
}

func TestReference(t *testing.T) {
	ref := committedReference(t)
	if !*update {
		// The committed digests of the first blocks must match a direct,
		// service-free simulation of their points.
		for b := range 2 {
			if got := blockDigest(t, b); b >= len(ref.Mixed) || got != ref.Mixed[b] {
				t.Errorf("block %d digest %s does not match reference.json", b, got)
			}
		}
		return
	}
	o := &options{workers: 2, out: os.Stderr}
	w, err := newPaperCold(o)
	if err != nil {
		t.Fatal(err)
	}
	opt := experiments.DefaultOptions()
	opt.Workers = o.workers
	if w.jobs, err = experiments.JobsFor(opt, w.exps...); err != nil {
		t.Fatal(err)
	}
	tables, _, err := w.regenerate(opt, nil, "reference", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref.PaperCold.TablesSHA256 = sha256Hex(tables)
	ref.PaperCold.CyclesSum = cyclesSum(opt.Cache)
	ref.Mixed = ref.Mixed[:0]
	for b := range maxReferenceBlocks {
		ref.Mixed = append(ref.Mixed, blockDigest(t, b))
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("reference.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runBenchmark runs one workload in-process at minimal size from the
// repository root and returns its report and result.
func runBenchmark(t *testing.T, workload string, trace bool, ref reference) (string, *result) {
	t.Helper()
	var out bytes.Buffer
	o := &options{workload: workload, seed: 3, seconds: 1, trace: trace, root: "..", ref: ref, out: &out}
	res, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return out.String(), res
}

func committedReference(t *testing.T) reference {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

// benchmarkSpec reads the metric lists of the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (e2e, layer map[string]string) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = make(map[string]string), make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func checkMetrics(t *testing.T, label string, res *result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct %v, %d of %d ops failed", label, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", label, len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", label, name, m, unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, traced and untraced")
	}
	e2e, layer := benchmarkSpec(t)
	ref := committedReference(t)
	for _, w := range []string{"paper-cold", "service-warm", "service-mixed"} {
		t.Run(w, func(t *testing.T) {
			out, res := runBenchmark(t, w, false, ref)
			checkMetrics(t, w+" untraced", res, e2e)
			for name := range e2e {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, res.Metrics[name].Value)
				}
			}
			if !strings.Contains(out, "# host {") {
				t.Errorf("%s: no host block in\n%s", w, out)
			}
			out, res = runBenchmark(t, w, true, ref)
			checkMetrics(t, w+" traced", res, layer)
			if !strings.Contains(out, "# traced:") || !strings.Contains(out, "untraced ") {
				t.Errorf("%s: traced run does not print its end-to-end numbers beside the untraced ones\n%s", w, out)
			}
		})
	}
}

func TestWrongDigestFailsOps(t *testing.T) {
	ref := committedReference(t)
	ref.Mixed = append([]string{strings.Repeat("0", 64)}, ref.Mixed[1:]...)
	_, res := runBenchmark(t, "service-mixed", false, ref)
	if res.Correct || res.Failed != mixedBlockSweeps {
		t.Fatalf("wrong block digest: correct %v, %d failed, want %d", res.Correct, res.Failed, mixedBlockSweeps)
	}
}

// TestTablesIndependentOfWorkers pins the property paper-cold's committed
// digest relies on: the rendered tables do not depend on the worker count.
func TestTablesIndependentOfWorkers(t *testing.T) {
	w, err := newPaperCold(&options{})
	if err != nil {
		t.Fatal(err)
	}
	var outs []string
	for _, workers := range []int{1, 2} {
		opt := experiments.DefaultOptions()
		opt.Benchmarks = []string{"histogram", "dedup"}
		opt.Workers = workers
		if w.jobs, err = experiments.JobsFor(opt, w.exps...); err != nil {
			t.Fatal(err)
		}
		tables, _, err := w.regenerate(opt, nil, fmt.Sprint(workers), 0)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, tables)
	}
	if outs[0] != outs[1] {
		t.Fatalf("tables differ between 1 and 2 workers:\n%s\n---\n%s", outs[0], outs[1])
	}
}

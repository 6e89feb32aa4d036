package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "")
	g.Set(10)
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %v, want 7", got)
	}
	// Same-name re-registration returns the same instrument.
	if r.Counter("c_total", "") != c {
		t.Error("re-registered counter is a different instrument")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Inc()
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil instruments must read as zero")
	}
	var cv *CounterVec
	cv.With("x").Inc() // nil vec yields nil counter
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

// exactPercentile is the reference implementation the histogram is tested
// against: the nearest-rank percentile of the sorted sample.
func exactPercentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHistogramQuantileProperty checks, over random samples, that every
// estimated quantile brackets the exact sorted-slice percentile: the
// estimate must land inside the bucket holding the exact value, i.e. within
// one bucket factor below it and never above its bucket's upper bound.
func TestHistogramQuantileProperty(t *testing.T) {
	const factor = 2.0
	bounds := ExpBuckets(1e-3, factor, 40)
	f := func(raw []float64, qRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		// Map arbitrary floats into the histogram's finite range.
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Abs(v)
			v = math.Mod(v, 1e6) + 1e-3
			sample = append(sample, v)
		}
		if len(sample) == 0 {
			return true
		}
		q := math.Mod(math.Abs(qRaw), 0.999) + 0.001
		h := newHistogram(bounds)
		for _, v := range sample {
			h.Observe(v)
		}
		sorted := append([]float64(nil), sample...)
		sort.Float64s(sorted)
		exact := exactPercentile(sorted, q)
		got := h.Quantile(q)
		// The exact value's bucket is [lower, upper]; the estimate must not
		// leave it by more than the interpolation allows: got in
		// [exact/factor, exact*factor] is the bucket-width guarantee.
		if got < exact/factor-1e-12 || got > exact*factor+1e-12 {
			t.Logf("q=%v exact=%v got=%v (n=%d)", q, exact, got, len(sample))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileKnownValues(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 6, 20} {
		h.Observe(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
	if got := h.Sum(); got != 38.5 {
		t.Fatalf("sum = %v, want 38.5", got)
	}
	// p50 rank = 4 → 4th observation lives in bucket (2,4]; interpolation
	// stays inside that bucket.
	if got := h.Quantile(0.5); got <= 2 || got > 4 {
		t.Errorf("p50 = %v, want in (2,4]", got)
	}
	// p1 lands in the first bucket, which has no lower bound → clamped to
	// the lowest bound, within the bucket factor of the 0.5 observation.
	if got := h.Quantile(0.01); got != 1 {
		t.Errorf("p1 = %v, want 1 (lowest bound)", got)
	}
	// p99 lands in the +Inf bucket → clamped to the top finite bound.
	if got := h.Quantile(0.99); got != 8 {
		t.Errorf("p99 = %v, want 8 (top finite bound)", got)
	}
	if got := (&Histogram{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i%100) + 1)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestWriteTextGolden pins the full text exposition format — HELP/TYPE
// headers, label escaping, histogram expansion, scrape-time gauges — against
// a committed golden file, so the /metrics surface cannot drift silently.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("service_sweeps_submitted_total", "Sweeps accepted by POST /sweeps.").Add(3)
	g := r.Gauge("service_sweeps_active", "Sweeps currently running.")
	g.Set(1)
	r.GaugeFunc("service_dispatch_queue_depth", "Grid points queued or in flight.", func() float64 { return 7 })
	cv := r.CounterVec("service_worker_points_total", "Points per worker and outcome.", "worker", "outcome")
	cv.With("http://w1:1", "dispatched").Add(12)
	cv.With("http://w1:1", "requeued").Add(2)
	cv.With("http://w2:2", "dispatched").Add(9)
	cv.With(`quo"te\n`, "failed").Inc()
	h := r.Histogram("store_hit_seconds", "Store hit latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.02)
	h.Observe(5)
	hv := r.HistogramVec("sim_task_latency_cycles", "Per-task queue-to-retire latency.", []float64{100, 1000}, "quantile")
	hv.With("p50").Observe(250)
	hv.With("p99").Observe(5000)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("text format drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("x_total 1\n")) {
		t.Errorf("missing sample in output:\n%s", buf.String())
	}
}

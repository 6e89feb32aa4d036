package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
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
	g.Add(-1)
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
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
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

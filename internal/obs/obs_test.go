package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %v, want 6", got)
	}
}

// TestHistogramBucketBoundaries pins the bucketing convention: bounds are
// inclusive upper bounds, values beyond the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 1.0, 5, 10, 100} {
		h.Observe(v)
	}
	// counts: (-inf,0.1]=2 {0.05, 0.1}, (0.1,1]=2 {0.5, 1}, (1,10]=2 {5, 10}, +inf=1 {100}
	_, cum, count, sum := h.snapshot()
	wantCum := []uint64{2, 4, 6, 7}
	for i, w := range wantCum {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if count != 7 {
		t.Errorf("count = %d, want 7", count)
	}
	wantSum := 0.05 + 0.1 + 0.5 + 1 + 5 + 10 + 100
	if math.Abs(sum-wantSum) > 1e-12 {
		t.Errorf("sum = %v, want %v", sum, wantSum)
	}
}

// TestTrimmedSummaryUnderOutliers is the robust-estimation contract: a few
// gross outliers move the plain mean but not the trimmed mean or p50.
func TestTrimmedSummaryUnderOutliers(t *testing.T) {
	h := NewHistogram(nil)
	// 95 well-behaved observations around 10ms, 5 gross outliers at 10s.
	for i := 0; i < 95; i++ {
		h.Observe(0.010)
	}
	for i := 0; i < 5; i++ {
		h.Observe(10)
	}
	s := h.Summarize(0.95)
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Mean < 0.4 { // plain mean is poisoned: (95*0.01 + 5*10)/100 ≈ 0.51
		t.Errorf("plain mean = %v, expected it poisoned above 0.4", s.Mean)
	}
	if s.TrimmedMean > 0.011 {
		t.Errorf("trimmed mean = %v, want ≈0.010 (outliers discarded)", s.TrimmedMean)
	}
	if s.Trimmed != 5 {
		t.Errorf("trimmed = %d samples, want 5", s.Trimmed)
	}
	if s.P50 != 0.010 {
		t.Errorf("p50 = %v, want 0.010", s.P50)
	}
	if s.Max != 10 {
		t.Errorf("max = %v, want 10", s.Max)
	}
}

// TestSummaryQuantiles pins the nearest-rank quantile convention.
func TestSummaryQuantiles(t *testing.T) {
	h := NewHistogram(nil)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summarize(1)
	if s.P50 != 50 || s.P90 != 90 || s.P95 != 95 || s.P99 != 99 {
		t.Fatalf("quantiles = %v/%v/%v/%v, want 50/90/95/99", s.P50, s.P90, s.P95, s.P99)
	}
	if s.Trimmed != 0 {
		t.Fatalf("q=1 trimmed %d samples, want 0", s.Trimmed)
	}
}

// TestReservoirSlides checks the sample window stays bounded and keeps the
// newest observations.
func TestReservoirSlides(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < reservoirSize+100; i++ {
		h.Observe(float64(i))
	}
	h.mu.Lock()
	n := len(h.samples)
	h.mu.Unlock()
	if n != reservoirSize {
		t.Fatalf("reservoir holds %d samples, want %d", n, reservoirSize)
	}
	// The oldest 100 observations were overwritten; min kept sample >= 100.
	s := h.Summarize(1)
	if s.Max != float64(reservoirSize+99) {
		t.Fatalf("max = %v, want %v", s.Max, float64(reservoirSize+99))
	}
}

func TestRegistryVectors(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("http_requests_total", "requests by route", "route", "code")
	reqs.With("/v1/jobs", "200").Inc()
	reqs.With("/v1/jobs", "200").Inc()
	reqs.With("/v1/jobs", "404").Inc()
	if got := reqs.With("/v1/jobs", "200").Value(); got != 2 {
		t.Fatalf("counter child = %v, want 2", got)
	}
	// Same name returns the same family.
	again := r.Counter("http_requests_total", "requests by route", "route", "code")
	if got := again.With("/v1/jobs", "404").Value(); got != 1 {
		t.Fatalf("re-registered family lost state: %v", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Series) != 2 {
		t.Fatalf("snapshot = %d families / %d series, want 1/2", len(snap), len(snap[0].Series))
	}
	if snap[0].Series[0].Labels[0] != "/v1/jobs" || snap[0].Series[0].Labels[1] != "200" {
		t.Fatalf("series labels = %v", snap[0].Series[0].Labels)
	}
}

func TestRegistrySchemaConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different schema did not panic")
		}
	}()
	r.Gauge("m", "h", "a")
}

// TestWritePrometheus checks the text exposition shape: HELP/TYPE headers,
// labeled series, and the histogram bucket/sum/count triplet.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "total requests", "route").With("/x").Add(3)
	r.Gauge("inflight", "in-flight requests").With().Set(2)
	h := r.Histogram("latency_seconds", "request latency", []float64{0.1, 1}, "route")
	h.With("/x").Observe(0.05)
	h.With("/x").Observe(0.5)
	h.With("/x").Observe(5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP requests_total total requests",
		"# TYPE requests_total counter",
		`requests_total{route="/x"} 3`,
		"# TYPE inflight gauge",
		"inflight 2",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{route="/x",le="0.1"} 1`,
		`latency_seconds_bucket{route="/x",le="1"} 2`,
		`latency_seconds_bucket{route="/x",le="+Inf"} 3`,
		`latency_seconds_count{route="/x"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	if !strings.Contains(out, `latency_seconds_sum{route="/x"} 5.55`) {
		t.Errorf("exposition missing sum line\n%s", out)
	}
}

func TestSpanSet(t *testing.T) {
	var ss SpanSet
	ss.Add("run", 100*time.Millisecond)
	ss.Add("checkpoint", 10*time.Millisecond)
	ss.Add("run", 50*time.Millisecond) // accumulates
	ss.Add("weird", -time.Second)      // clamped
	if got := ss.Seconds("run"); math.Abs(got-0.15) > 1e-9 {
		t.Fatalf("run seconds = %v, want 0.15", got)
	}
	if got := ss.Seconds("weird"); got != 0 {
		t.Fatalf("negative span = %v, want 0", got)
	}
	if len(ss.Phases) != 3 {
		t.Fatalf("phases = %d, want 3 (repeat accumulated)", len(ss.Phases))
	}
	if math.Abs(ss.Total-0.16) > 1e-9 {
		t.Fatalf("total = %v, want 0.16", ss.Total)
	}
}

func TestSpanClock(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	var ss SpanSet
	sp := StartSpan("verify", clock)
	now = now.Add(250 * time.Millisecond)
	if d := sp.EndTo(&ss); d != 250*time.Millisecond {
		t.Fatalf("span duration = %v", d)
	}
	if got := ss.Seconds("verify"); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("recorded = %v, want 0.25", got)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("request IDs collide: %q", a)
	}
	if len(a) != 16 {
		t.Fatalf("request ID %q has length %d, want 16", a, len(a))
	}
}

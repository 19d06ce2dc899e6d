package history

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock advances a fixed step per call site via Advance.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func newFixture() (*obs.Registry, *Store, *fakeClock) {
	reg := obs.NewRegistry()
	clock := &fakeClock{now: time.Unix(1_000_000, 0)}
	st := New(reg, Config{Interval: time.Second, Clock: clock.Now})
	st.max = 8
	return reg, st, clock
}

func TestCounterRates(t *testing.T) {
	reg, st, clock := newFixture()
	c := reg.Counter("reqs_total", "test").With()
	st.Sample() // first tick: no rate yet
	for i := 0; i < 3; i++ {
		c.Add(10)
		clock.Advance(time.Second)
		st.Sample()
	}
	snap := st.Query(Selection{Names: []string{"reqs_total"}})
	if len(snap.Series) != 1 {
		t.Fatalf("%d series", len(snap.Series))
	}
	s := snap.Series[0]
	if s.Type != "counter" {
		t.Fatalf("type = %q", s.Type)
	}
	if len(s.Samples) != 4 {
		t.Fatalf("%d samples", len(s.Samples))
	}
	if s.Samples[0].Value != 0 {
		t.Errorf("first sample rate = %g, want 0 (no previous tick)", s.Samples[0].Value)
	}
	for _, p := range s.Samples[1:] {
		if math.Abs(p.Value-10) > 1e-9 {
			t.Errorf("rate = %g, want 10/s", p.Value)
		}
	}
}

func TestGaugeRaw(t *testing.T) {
	reg, st, clock := newFixture()
	g := reg.Gauge("depth", "test").With()
	for i := 1; i <= 3; i++ {
		g.Set(float64(i * 7))
		st.Sample()
		clock.Advance(time.Second)
	}
	s := st.Query(Selection{}).Series[0]
	for i, p := range s.Samples {
		if p.Value != float64((i+1)*7) {
			t.Errorf("sample %d = %g", i, p.Value)
		}
	}
}

func TestHistogramDigest(t *testing.T) {
	reg, st, clock := newFixture()
	h := reg.Histogram("lat_seconds", "test", nil).With()
	for i := 0; i < 100; i++ {
		h.Observe(0.01)
	}
	st.Sample()
	clock.Advance(time.Second)
	st.Sample()
	s := st.Query(Selection{}).Series[0]
	if s.Type != "histogram" {
		t.Fatalf("type = %q", s.Type)
	}
	d := s.Samples[0].Hist
	if d == nil || d.Count != 100 {
		t.Fatalf("digest = %+v", d)
	}
	if math.Abs(d.P50-0.01) > 1e-9 || math.Abs(d.TrimmedMean-0.01) > 1e-9 {
		t.Errorf("digest quantiles = %+v", d)
	}
}

func TestStrideDoublingBoundsMemory(t *testing.T) {
	reg, st, clock := newFixture() // bound 8
	g := reg.Gauge("g", "test").With()
	for i := 0; i < 1000; i++ {
		g.Set(float64(i))
		st.Sample()
		clock.Advance(time.Second)
	}
	s := st.Query(Selection{}).Series[0]
	if len(s.Samples) > 8 {
		t.Fatalf("%d samples retained, max 8", len(s.Samples))
	}
	if len(s.Samples) < 4 {
		t.Fatalf("%d samples retained, want at least max/2", len(s.Samples))
	}
	if s.Stride < 128 {
		t.Errorf("stride = %d after 1000 ticks", s.Stride)
	}
	// Retained ticks sit on the stride grid, oldest-first.
	for i, p := range s.Samples {
		if (p.Tick-1)%s.Stride != 0 {
			t.Errorf("sample %d tick %d off the stride-%d grid", i, p.Tick, s.Stride)
		}
		if i > 0 && p.Tick <= s.Samples[i-1].Tick {
			t.Errorf("ticks not increasing at %d", i)
		}
	}
}

func TestDefaultRetainsAtLeast256(t *testing.T) {
	reg := obs.NewRegistry()
	clock := &fakeClock{now: time.Unix(1_000_000, 0)}
	st := New(reg, Config{Interval: time.Second, Clock: clock.Now})
	g := reg.Gauge("g", "test").With()
	for i := 0; i < 10_000; i++ {
		g.Set(float64(i))
		st.Sample()
		clock.Advance(time.Second)
	}
	s := st.Query(Selection{}).Series[0]
	if len(s.Samples) < 256 {
		t.Fatalf("%d samples retained, want >= 256", len(s.Samples))
	}
	if len(s.Samples) > DefaultMaxSamples {
		t.Fatalf("%d samples retained, max %d", len(s.Samples), DefaultMaxSamples)
	}
}

func TestWindowAlignment(t *testing.T) {
	reg, st, clock := newFixture()
	g := reg.Gauge("g", "test").With()
	for i := 0; i < 6; i++ {
		g.Set(float64(i))
		st.Sample()
		clock.Advance(time.Second)
	}
	// 2.5s window aligns up to 3 grid points.
	snap := st.Query(Selection{Window: 2500 * time.Millisecond})
	got := len(snap.Series[0].Samples)
	if got != 3 {
		t.Fatalf("%d samples in 2.5s window, want 3", got)
	}
}

func TestSelectionFiltersNames(t *testing.T) {
	reg, st, _ := newFixture()
	reg.Gauge("a", "test").With().Set(1)
	reg.Gauge("b", "test").With().Set(2)
	st.Sample()
	snap := st.Query(Selection{Names: []string{"b"}})
	if len(snap.Series) != 1 || snap.Series[0].Name != "b" {
		t.Fatalf("selection = %+v", snap.Series)
	}
	if st.Query(Selection{}).Ticks != 1 {
		t.Error("tick count wrong")
	}
}

func TestLabeledSeriesSplit(t *testing.T) {
	reg, st, _ := newFixture()
	v := reg.Counter("hits_total", "test", "route")
	v.With("/a").Add(1)
	v.With("/b").Add(2)
	st.Sample()
	snap := st.Query(Selection{Names: []string{"hits_total"}})
	if len(snap.Series) != 2 {
		t.Fatalf("%d series, want 2 (one per label value)", len(snap.Series))
	}
	if snap.Series[0].Labels[0] != "/a" || snap.Series[1].Labels[0] != "/b" {
		t.Errorf("label order: %+v", snap.Series)
	}
}

func TestAtAndLatest(t *testing.T) {
	reg, st, clock := newFixture()
	g := reg.Gauge("g", "test").With()
	for i := 1; i <= 5; i++ {
		g.Set(float64(i))
		st.Sample()
		clock.Advance(time.Second)
	}
	// Clock is now 5s past the first sample; 3s ago lands on sample 3
	// (taken at t+2s, value 3).
	p, ok := st.At("g", 3*time.Second)
	if !ok || p.Value != 3 {
		t.Fatalf("At(3s) = %+v ok=%v, want value 3", p, ok)
	}
	if _, ok := st.At("g", time.Hour); ok {
		t.Error("At beyond history should miss")
	}
	if _, ok := st.At("missing", 0); ok {
		t.Error("At unknown series should miss")
	}
	// Age zero is the newest sample.
	if last, ok := st.At("g", 0); !ok || last.Value != 5 {
		t.Fatalf("At(0) = %+v ok=%v, want the latest value 5", last, ok)
	}
}

// The sampler must stay cheap: well under 1% of a bench-case step budget
// (tens of milliseconds). The bound here is generous for CI machines; the
// measured value is recorded in EXPERIMENTS.md.
func TestSampleOverhead(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(reg, Config{Interval: time.Second})
	for i := 0; i < 10; i++ {
		reg.Gauge(gaugeName(i), "test").With().Set(float64(i))
	}
	h := reg.Histogram("lat_seconds", "test", nil).With()
	for i := 0; i < 512; i++ {
		h.Observe(float64(i) * 1e-4)
	}
	start := time.Now()
	const n = 100
	for i := 0; i < n; i++ {
		st.Sample()
	}
	per := time.Since(start) / n
	if per > 5*time.Millisecond {
		t.Errorf("Sample took %v per call; want well under 5ms", per)
	}
}

func gaugeName(i int) string {
	return "g" + string(rune('a'+i))
}

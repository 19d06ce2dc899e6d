// Package obs is the serving layer's dependency-free telemetry core:
// counters, gauges, and fixed-bucket latency histograms collected in a
// process-wide Registry, exposed both as Prometheus text exposition
// (GET /metricsz) and as structured snapshots the human-readable /statusz
// renders. Histograms additionally keep a bounded reservoir of raw
// observations so they can report trimmed quantile summaries — the same
// robust-estimation idiom internal/verify applies to error norms
// (Coretto & Hennig, arXiv:1406.0808): the worst (1-q) fraction of samples
// is discarded before summarizing, so a handful of outlier requests cannot
// poison the reported latency.
//
// The package deliberately has no dependencies beyond the standard library
// and is safe for concurrent use; every metric is cheap enough for hot
// request paths.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultTrimQuantile is the kept fraction for trimmed latency summaries,
// matching internal/verify's default for error norms.
const DefaultTrimQuantile = 0.95

// reservoirSize bounds the raw-observation window a histogram keeps for
// quantile summaries; beyond it the window slides (newest wins).
const reservoirSize = 512

// DefBuckets are the default latency bucket upper bounds, in seconds
// (sub-millisecond cache hits through multi-second simulation runs).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Counter is a monotonically increasing metric.
type Counter struct {
	// bits holds the float64 value atomically.
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored — counters only go up).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	for {
		old := c.bits.Load()
		val := math.Float64frombits(old) + delta
		if c.bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		val := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution plus a sliding reservoir of raw
// observations for quantile summaries. Buckets are upper bounds; an
// implicit +Inf bucket catches the tail.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64
	counts  []uint64 // len(bounds)+1; last is the +Inf bucket
	count   uint64
	sum     float64
	samples []float64 // reservoir ring
	next    int
}

// NewHistogram builds a histogram over the given bucket upper bounds
// (sorted ascending; nil selects DefBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	if len(h.samples) < reservoirSize {
		h.samples = append(h.samples, v)
	} else {
		h.samples[h.next] = v
	}
	h.next = (h.next + 1) % reservoirSize
}

// Summary is a point-in-time digest of a histogram: total count and sum
// from the full stream, quantiles and the trimmed mean from the reservoir.
type Summary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	// TrimmedMean discards the worst (1-q) fraction of reservoir samples
	// before averaging (the verify trimming idiom), so it tracks typical
	// behavior rather than outliers.
	TrimmedMean float64 `json:"trimmedMean"`
	// Trimmed is how many reservoir samples the trimmed mean discarded.
	Trimmed int `json:"trimmed"`
}

// Summarize digests the histogram with kept fraction q (<=0 or >1 selects
// DefaultTrimQuantile).
func (h *Histogram) Summarize(q float64) Summary {
	if q <= 0 || q > 1 {
		q = DefaultTrimQuantile
	}
	h.mu.Lock()
	s := Summary{Count: h.count, Sum: h.sum}
	samples := append([]float64(nil), h.samples...)
	h.mu.Unlock()

	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	if len(samples) == 0 {
		return s
	}
	sort.Float64s(samples)
	s.P50 = quantile(samples, 0.50)
	s.P90 = quantile(samples, 0.90)
	s.P95 = quantile(samples, 0.95)
	s.P99 = quantile(samples, 0.99)
	s.Max = samples[len(samples)-1]

	drop := int(float64(len(samples)) * (1 - q))
	kept := samples[:len(samples)-drop]
	s.Trimmed = drop
	var sum float64
	for _, v := range kept {
		sum += v
	}
	if len(kept) > 0 {
		s.TrimmedMean = sum / float64(len(kept))
	}
	return s
}

// quantile reads the q-th quantile from sorted samples (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// snapshot returns the cumulative bucket counts, total count, and sum (the
// Prometheus histogram exposition shape).
func (h *Histogram) snapshot() (bounds []float64, cumulative []uint64, count uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return h.bounds, cumulative, h.count, h.sum
}

// metricKind enumerates the family types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a fixed label schema and one child per
// label-value combination.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]any // Counter | Gauge | Histogram, keyed by joined label values; guarded by mu
	keys     []string       // insertion order for deterministic exposition; guarded by mu
}

// labelKey joins label values into the child map key. Values never contain
// \x00 in practice (routes, methods, status codes, phase names).
func labelKey(values []string) string { return strings.Join(values, "\x00") }

func (f *family) child(values []string, make func() any) any {
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	f.children[key] = c
	f.keys = append(f.keys, key)
	return c
}

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
	order    []string           // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// family registers (or fetches) one family; re-registration with a
// different schema panics — that is a programming error, not runtime state.
func (r *Registry) family(name, help string, kind metricKind, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    buckets,
		children:   map[string]any{},
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct{ f *family }

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labelNames, nil)}
}

// With returns the child counter for the label values (created on first
// use). The value count must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct{ f *family }

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labelNames, nil)}
}

// With returns the child gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct{ f *family }

// Histogram registers (or fetches) a histogram family over the bucket
// bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &HistogramVec{r.family(name, help, kindHistogram, labelNames, buckets)}
}

// With returns the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	buckets := v.f.buckets
	return v.f.child(values, func() any { return NewHistogram(buckets) }).(*Histogram)
}

// Series is one (label values, metric) pair of a family snapshot.
type Series struct {
	Labels []string // values, aligned with the family's LabelNames
	Value  float64  // counters and gauges
	Hist   *Summary // histograms
}

// FamilySnapshot is a point-in-time view of one family.
type FamilySnapshot struct {
	Name       string
	Help       string
	Type       string
	LabelNames []string
	Series     []Series
}

// Snapshot digests every family in registration order; series appear in
// first-use order. Histogram summaries use DefaultTrimQuantile.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.kind.String(),
			LabelNames: f.labelNames}
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			s := Series{Labels: strings.Split(k, "\x00")}
			if k == "" {
				s.Labels = nil
			}
			switch c := children[i].(type) {
			case *Counter:
				s.Value = c.Value()
			case *Gauge:
				s.Value = c.Value()
			case *Histogram:
				sum := c.Summarize(0)
				s.Hist = &sum
			}
			fs.Series = append(fs.Series, s)
		}
		out = append(out, fs)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, one line per series, and the
// _bucket/_sum/_count triplet for histograms.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			var values []string
			if k != "" {
				values = strings.Split(k, "\x00")
			}
			base := promLabels(f.labelNames, values, "", 0)
			switch c := children[i].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %s\n", f.name, base, promFloat(c.Value()))
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, base, promFloat(c.Value()))
			case *Histogram:
				bounds, cum, count, sum := c.snapshot()
				for bi, b := range bounds {
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						promLabels(f.labelNames, values, "le", b), cum[bi])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					promLabels(f.labelNames, values, "le", math.Inf(1)), cum[len(cum)-1])
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, promFloat(sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, count)
			}
		}
	}
}

// promLabels renders a label set, optionally with a trailing le bound.
func promLabels(names, values []string, le string, bound float64) string {
	var parts []string
	for i, n := range names {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		parts = append(parts, fmt.Sprintf("%s=%q", n, v))
	}
	if le != "" {
		if math.IsInf(bound, 1) {
			parts = append(parts, `le="+Inf"`)
		} else {
			parts = append(parts, fmt.Sprintf("le=%q", promFloat(bound)))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// promFloat formats a value the way Prometheus expects (shortest
// round-trippable decimal).
func promFloat(v float64) string { return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0") }

// NewRequestID returns a 16-hex-char random request identifier. Randomness
// failures degrade to a process-local sequence — request IDs are a tracing
// aid, not a security boundary.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%016x", reqFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

var reqFallback atomic.Uint64

// Package history gives the obs registry a bounded time dimension: a
// ring-buffer time-series store that samples a Registry snapshot at a
// fixed interval and retains a downsampled window per series. Counters
// are differentiated into per-second rates, gauges keep their raw values,
// and histograms are reduced to trimmed-quantile digests — the same
// robust-estimation idiom the registry's own summaries use.
//
// Memory stays bounded the way the telemetry flight recorder's does:
// each series keeps at most DefaultMaxSamples points in an obs.Ring keyed
// by tick, so the retained set is a pure function of how many ticks have
// elapsed — old history thins, recent history stays dense, and nothing
// ever grows without bound.
package history

import (
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultMaxSamples bounds one series' retained points. 512 keeps at
// least 256 samples live after any stride-doubling compaction.
const DefaultMaxSamples = 512

// DefaultInterval is the sampling cadence when none is configured.
const DefaultInterval = 5 * time.Second

// Digest is the retained shape of one histogram observation: the stream
// totals plus the trimmed quantile summary at sample time.
type Digest struct {
	Count       uint64  `json:"count"`
	Sum         float64 `json:"sum"`
	P50         float64 `json:"p50"`
	P95         float64 `json:"p95"`
	TrimmedMean float64 `json:"trimmedMean"`
}

// Sample is one retained point of one series. Tick is the monotone sample
// index since the store started (the downsampling grid is aligned to it);
// Unix is the sample wall-clock time in seconds.
type Sample struct {
	Tick int     `json:"tick"`
	Unix float64 `json:"unix"`
	// Value carries a gauge's raw value or a counter's per-second rate
	// over the preceding interval.
	Value float64 `json:"value"`
	// Hist carries a histogram's digest instead of Value.
	Hist *Digest `json:"hist,omitempty"`
}

// Series is one metric child's retained history.
type Series struct {
	Name       string   `json:"name"`
	Type       string   `json:"type"` // counter | gauge | histogram
	LabelNames []string `json:"labelNames,omitempty"`
	Labels     []string `json:"labels,omitempty"`
	// Stride is the current retention stride: one point kept per Stride
	// ticks (doubles as the window ages).
	Stride  int      `json:"stride"`
	Samples []Sample `json:"samples"`
}

// Snapshot is the wire shape of a history query.
type Snapshot struct {
	// IntervalSeconds is the configured sampling cadence.
	IntervalSeconds float64 `json:"intervalSeconds"`
	// MaxSamples bounds each series' retained points.
	MaxSamples int `json:"maxSamples"`
	// Ticks counts samples taken since the store started (retained or
	// not).
	Ticks  int      `json:"ticks"`
	Series []Series `json:"series"`
}

// Selection filters a history query.
type Selection struct {
	// Names keeps only the listed family names; empty keeps all.
	Names []string
	// Window keeps only samples younger than the duration (aligned to
	// the sample grid); zero keeps the full retained window.
	Window time.Duration
}

// Config tunes a Store.
type Config struct {
	// Interval is the sampling cadence (default DefaultInterval). The
	// store itself does not tick — the owner calls Sample — but the
	// cadence is reported in snapshots and drives window alignment.
	Interval time.Duration
	// Clock overrides the time source (tests); nil means time.Now.
	Clock func() time.Time
}

// Store retains downsampled registry history. Safe for concurrent use:
// one goroutine ticks Sample while request handlers Query.
type Store struct {
	reg      *obs.Registry
	interval time.Duration
	max      int // DefaultMaxSamples; the package's tests lower it
	clock    func() time.Time

	mu     sync.Mutex
	tick   int
	series map[string]*buf
	order  []string
	// prev holds raw counter values at the previous tick for rate
	// differentiation.
	prev     map[string]float64
	prevTime time.Time
}

// buf is one series: its identity (s.Samples stays empty) and its ring.
type buf struct {
	s    Series
	ring *obs.Ring[Sample]
}

// New builds a store over the registry.
func New(reg *obs.Registry, cfg Config) *Store {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Store{
		reg:      reg,
		interval: cfg.Interval,
		max:      DefaultMaxSamples,
		clock:    clock,
		series:   map[string]*buf{},
		prev:     map[string]float64{},
	}
}

// Interval reports the configured sampling cadence.
func (st *Store) Interval() time.Duration { return st.interval }

// key identifies one child across snapshots.
func key(family string, labels []string) string {
	return family + "\x00" + strings.Join(labels, "\x00")
}

// Sample takes one registry snapshot and appends it to every series'
// history, differentiating counters against the previous tick.
func (st *Store) Sample() {
	snap := st.reg.Snapshot()
	now := st.clock()

	st.mu.Lock()
	defer st.mu.Unlock()
	st.tick++
	dt := now.Sub(st.prevTime).Seconds()
	first := st.prevTime.IsZero()
	unix := float64(now.UnixNano()) / 1e9

	for _, fam := range snap {
		for _, sr := range fam.Series {
			k := key(fam.Name, sr.Labels)
			b, ok := st.series[k]
			if !ok {
				b = &buf{ring: obs.NewRing[Sample](st.max), s: Series{
					Name:       fam.Name,
					Type:       fam.Type,
					LabelNames: fam.LabelNames,
					Labels:     sr.Labels,
				}}
				st.series[k] = b
				st.order = append(st.order, k)
			}
			p := Sample{Tick: st.tick, Unix: unix}
			switch fam.Type {
			case "counter":
				raw := sr.Value
				if prev, had := st.prev[k]; had && !first && dt > 0 && raw >= prev {
					p.Value = (raw - prev) / dt
				}
				st.prev[k] = raw
			case "histogram":
				if sr.Hist != nil {
					p.Hist = &Digest{
						Count:       sr.Hist.Count,
						Sum:         sr.Hist.Sum,
						P50:         sr.Hist.P50,
						P95:         sr.Hist.P95,
						TrimmedMean: sr.Hist.TrimmedMean,
					}
				}
			default: // gauge
				p.Value = sr.Value
			}
			b.ring.Add(p.Tick, p)
		}
	}
	st.prevTime = now
}

// Query returns the retained history for the selection, series in
// first-seen order, each series' samples oldest-first.
func (st *Store) Query(sel Selection) Snapshot {
	var want map[string]bool
	if len(sel.Names) > 0 {
		want = make(map[string]bool, len(sel.Names))
		for _, n := range sel.Names {
			want[n] = true
		}
	}
	now := st.clock()

	st.mu.Lock()
	defer st.mu.Unlock()
	out := Snapshot{
		IntervalSeconds: st.interval.Seconds(),
		MaxSamples:      st.max,
		Ticks:           st.tick,
	}
	cutoff := 0.0
	if sel.Window > 0 {
		// Align the window to the sample grid so a 1m window at a 5s
		// cadence keeps exactly the last 12 grid points.
		aligned := sel.Window.Truncate(st.interval)
		if aligned < sel.Window {
			aligned += st.interval
		}
		cutoff = float64(now.Add(-aligned).UnixNano()) / 1e9
	}
	for _, k := range st.order {
		b := st.series[k]
		if want != nil && !want[b.s.Name] {
			continue
		}
		s := b.s
		s.Stride = b.ring.Stride()
		samples := b.ring.Items()
		if cutoff > 0 {
			i := 0
			for i < len(samples) && samples[i].Unix < cutoff {
				i++
			}
			samples = samples[i:]
		}
		s.Samples = append([]Sample(nil), samples...)
		out.Series = append(out.Series, s)
	}
	return out
}

// At returns the retained sample of the named unlabeled series nearest to
// (and no younger than) the given age — the /statusz trend columns read
// "now vs 1m vs 10m" through it. ok is false when the series is unknown,
// labeled, or its history does not reach back that far.
func (st *Store) At(name string, age time.Duration) (Sample, bool) {
	now := st.clock()
	target := float64(now.Add(-age).UnixNano()) / 1e9

	st.mu.Lock()
	defer st.mu.Unlock()
	b, ok := st.series[key(name, nil)]
	if !ok {
		return Sample{}, false
	}
	var best Sample
	found := false
	for _, p := range b.ring.Items() {
		if p.Unix <= target {
			best, found = p, true
		}
	}
	return best, found
}

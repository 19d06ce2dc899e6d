// Package telemetry is the in-run flight recorder of the serving stack: a
// bounded, deterministically downsampled per-step series of physics health
// signals (conservation drift, dt, smoothing-length and neighbor-count
// extrema, rank imbalance, per-subsystem step timings) plus the physics
// watchdogs evaluated against it.
//
// The recorder keeps a fixed-size retained series no matter how many steps
// are fed: samples live in an obs.Ring keyed by step, so the retained series
// after feeding steps 1..N is a pure function of N — identical across chunk
// boundaries and across checkpoint-resume (TruncateAfter restores the exact
// prefix state, keeping the stride). That determinism is what makes the
// persisted track content-address-stable.
//
// The watchdogs reuse the robust trimmed-estimation idiom of the verify
// subsystem (Coretto & Hennig: trim gross outliers before summarizing), so
// a single corrupted sample flags the run without poisoning the summary
// statistics it is judged against.
package telemetry

import (
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Sample is one step's physics snapshot. Step is the 1-based count of
// completed steps (the recorder's retention rule and the first/last
// guarantees key on it).
type Sample struct {
	Step int     `json:"step"`
	Time float64 `json:"time"` // simulation time after the step
	DT   float64 `json:"dt"`

	// Conservation drift against the run's initial state (conserve.Compare
	// semantics: relative, scale-normalized).
	MassDrift     float64 `json:"massDrift"`
	MomentumDrift float64 `json:"momentumDrift"`
	AngMomDrift   float64 `json:"angMomDrift"`
	EnergyDrift   float64 `json:"energyDrift"`

	// Smoothing-length and neighbor-count distribution of the step.
	HMin    float64 `json:"hMin"`
	HMax    float64 `json:"hMax"`
	NbrMin  int     `json:"nbrMin"`
	NbrMax  int     `json:"nbrMax"`
	NbrMean float64 `json:"nbrMean"`

	// Imbalance is max/mean per-rank compute seconds of the step (1 =
	// perfectly balanced; 0 = single-rank/serial, not sampled).
	Imbalance float64 `json:"imbalance,omitempty"`

	// Phases holds per-subsystem seconds for the step: the workflow phase
	// letters (A..J, wall-clock) on the serial backend, the phase classes
	// (trace.PhaseCompute, PhaseHalo, PhaseCollective; simulated clock) on
	// the distributed one, so a persisted track and the trace rebuilt from
	// it agree by construction.
	// Go marshals map keys sorted, so the JSON rendering is stable.
	Phases map[string]float64 `json:"phases,omitempty"`
}

// Watchdog kinds, the label values of telemetry_watchdog_trips_total.
const (
	KindNaN        = "nan"
	KindDriftSlope = "drift-slope"
	KindDTCollapse = "dt-collapse"
	KindImbalance  = "imbalance"
)

// Statuses of a track (and of a job's telemetry rollup).
const (
	StatusOK      = "ok"
	StatusTripped = "tripped"
)

// The recorder's bound and the watchdog thresholds are constants: a
// persisted track and its trips are features of the fleet analysis, so they
// depend on the fed steps alone, never on the server that recorded them.
const (
	// maxSamples bounds the retained series. The rendered track holds at
	// most maxSamples+1 samples (the latest sample is always appended when
	// not already retained).
	maxSamples = 256
	// maxDriftSlope bounds the magnitude of the robust (least-trimmed)
	// per-step slope of the worst conservation drift: the run loses 1% of a
	// conserved quantity per step.
	maxDriftSlope = 0.01
	// dtCollapse trips when a step's dt falls below this fraction of the
	// trimmed median dt of the retained series.
	dtCollapse = 0.01
	// maxImbalance bounds max/mean per-rank compute seconds.
	maxImbalance = 16
	// minSamples is how many retained samples the slope and dt watchdogs
	// need before judging — early-transient steps are noisy.
	minSamples = 8
)

// Track is the rendered (and persisted) form of a recorder: the bounded
// downsampled series plus the watchdog verdict.
type Track struct {
	Status     string   `json:"status"` // "ok" | "tripped"
	Trips      []string `json:"trips,omitempty"`
	Stride     int      `json:"stride"`
	MaxSamples int      `json:"maxSamples"`
	Samples    []Sample `json:"samples"`
}

// Recorder is the flight recorder: feed it every completed step with Add,
// render the bounded series with TrackSnapshot. Safe for concurrent use
// (the run loop writes, HTTP handlers read).
type Recorder struct {
	mu       sync.Mutex
	onTrip   func(kind string) // set once by NewRecorder; read without mu
	ring     *obs.Ring[Sample] // retained series, keyed by Step; guarded by mu
	last     Sample            // latest fed sample (may not be retained)
	haveLast bool
	trips    []string
	tripped  map[string]bool
}

// NewRecorder builds a recorder. onTrip, when non-nil, observes the first
// trip of each watchdog kind (latched: later violations of an
// already-tripped kind are silent); it is called without the recorder lock
// held.
func NewRecorder(onTrip func(kind string)) *Recorder {
	return &Recorder{onTrip: onTrip, ring: obs.NewRing[Sample](maxSamples), tripped: map[string]bool{}}
}

// Add feeds one completed step. Samples must arrive in ascending Step order
// (1-based); non-positive steps are ignored. Watchdogs run on every fed
// sample, retention on the deterministic stride rule.
func (r *Recorder) Add(s Sample) {
	if s.Step <= 0 {
		return
	}
	r.mu.Lock()
	fired := r.watchLocked(s)
	// The watchdogs see the raw values; what gets stored must survive
	// encoding/json, which rejects NaN and ±Inf. The nan trip in the track
	// is the faithful record of what was scrubbed here.
	s = sanitize(s)
	r.last = s
	r.haveLast = true
	r.ring.Add(s.Step, s)
	r.mu.Unlock()
	if r.onTrip != nil {
		for _, kind := range fired {
			r.onTrip(kind)
		}
	}
}

// TruncateAfter drops every sample past step — the checkpoint-restore hook:
// a job resumed from step k re-executes (and re-feeds) steps k+1 onward,
// and ends with the retained series of an uninterrupted run.
func (r *Recorder) TruncateAfter(step int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring.TruncateAfter(step)
	if r.haveLast && r.last.Step > step {
		if kept := r.ring.Items(); len(kept) > 0 {
			r.last = kept[len(kept)-1]
		} else {
			r.haveLast = false
		}
	}
}

// Latest returns the most recently fed sample.
func (r *Recorder) Latest() (Sample, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last, r.haveLast
}

// TrackSnapshot renders the bounded series: the retained samples (first
// sample always among them — step 1 matches every stride) plus the latest
// fed sample when not already retained, so the series always ends at the
// last executed step.
func (r *Recorder) TrackSnapshot() Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := Track{
		Status:     StatusOK,
		Stride:     r.ring.Stride(),
		MaxSamples: maxSamples,
		Samples:    append([]Sample(nil), r.ring.Items()...),
	}
	if len(r.trips) > 0 {
		t.Status = StatusTripped
		t.Trips = append([]string(nil), r.trips...)
	}
	if r.haveLast && (len(t.Samples) == 0 || t.Samples[len(t.Samples)-1].Step != r.last.Step) {
		t.Samples = append(t.Samples, r.last)
	}
	return t
}

// watchLocked evaluates every watchdog against the incoming sample and the
// retained series, latches new trips, and returns the kinds that fired for
// the first time.
func (r *Recorder) watchLocked(s Sample) []string {
	var fired []string
	trip := func(kind string) {
		if r.tripped[kind] {
			return
		}
		r.tripped[kind] = true
		r.trips = append(r.trips, kind)
		fired = append(fired, kind)
	}
	retained := r.ring.Items()

	if !sampleFinite(s) {
		trip(KindNaN)
	}
	if s.Imbalance > maxImbalance {
		trip(KindImbalance)
	}
	if len(retained) >= minSamples {
		if med := trimmedMedianDT(retained); med > 0 && s.DT >= 0 && s.DT < dtCollapse*med {
			trip(KindDTCollapse)
		}
		if slope := trimmedDriftSlope(retained); math.Abs(slope) > maxDriftSlope {
			trip(KindDriftSlope)
		}
	}
	return fired
}

// sampleFinite checks every float field for NaN/Inf — the cheapest and most
// decisive corruption signal.
func sampleFinite(s Sample) bool {
	for _, v := range []float64{
		s.Time, s.DT, s.MassDrift, s.MomentumDrift, s.AngMomDrift,
		s.EnergyDrift, s.HMin, s.HMax, s.NbrMean, s.Imbalance,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// sanitize maps non-finite float fields to 0 so the stored sample always
// JSON-encodes (encoding/json rejects NaN/Inf). The scrub happens after the
// watchdogs ran on the raw sample, so a nan trip in Track.Trips is the
// durable record of any value zeroed here.
func sanitize(s Sample) Sample {
	clean := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	s.Time = clean(s.Time)
	s.DT = clean(s.DT)
	s.MassDrift = clean(s.MassDrift)
	s.MomentumDrift = clean(s.MomentumDrift)
	s.AngMomDrift = clean(s.AngMomDrift)
	s.EnergyDrift = clean(s.EnergyDrift)
	s.HMin = clean(s.HMin)
	s.HMax = clean(s.HMax)
	s.NbrMean = clean(s.NbrMean)
	s.Imbalance = clean(s.Imbalance)
	for k, v := range s.Phases {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			s.Phases[k] = 0
		}
	}
	return s
}

// trimmedMedianDT is the median dt of the retained series after trimming
// the top and bottom deciles — one transient dt spike cannot move the
// collapse baseline.
func trimmedMedianDT(samples []Sample) float64 {
	dts := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !math.IsNaN(s.DT) && !math.IsInf(s.DT, 0) {
			dts = append(dts, s.DT)
		}
	}
	if len(dts) == 0 {
		return 0
	}
	sort.Float64s(dts)
	trim := len(dts) / 10
	dts = dts[trim : len(dts)-trim]
	return dts[len(dts)/2]
}

// worstDrift is the largest conservation-drift component of a sample.
func worstDrift(s Sample) float64 {
	return math.Max(math.Max(s.MassDrift, s.MomentumDrift),
		math.Max(s.AngMomDrift, s.EnergyDrift))
}

// trimmedDriftSlope fits worst-drift vs step by least squares, discards the
// worst quarter of the residuals, and refits — the one-step least-trimmed-
// squares idiom shared with the Amdahl fit and the trimmed verification
// norms. Non-finite samples are excluded up front (the NaN watchdog owns
// them).
func trimmedDriftSlope(samples []Sample) float64 {
	type pt struct{ x, y float64 }
	pts := make([]pt, 0, len(samples))
	for _, s := range samples {
		w := worstDrift(s)
		if math.IsNaN(w) || math.IsInf(w, 0) {
			continue
		}
		pts = append(pts, pt{float64(s.Step), w})
	}
	if len(pts) < 3 {
		return 0
	}
	fit := func(ps []pt) (slope, intercept float64) {
		var sx, sy, sxx, sxy float64
		n := float64(len(ps))
		for _, p := range ps {
			sx += p.x
			sy += p.y
			sxx += p.x * p.x
			sxy += p.x * p.y
		}
		den := n*sxx - sx*sx
		if den == 0 {
			return 0, sy / n
		}
		slope = (n*sxy - sx*sy) / den
		return slope, (sy - slope*sx) / n
	}
	slope, icpt := fit(pts)
	// Trim at most a quarter, keeping the refit overdetermined.
	drop := len(pts) / 4
	if drop == 0 || len(pts)-drop < 3 {
		return slope
	}
	sort.Slice(pts, func(i, j int) bool {
		ri := math.Abs(pts[i].y - (icpt + slope*pts[i].x))
		rj := math.Abs(pts[j].y - (icpt + slope*pts[j].x))
		return ri < rj
	})
	slope, _ = fit(pts[:len(pts)-drop])
	return slope
}

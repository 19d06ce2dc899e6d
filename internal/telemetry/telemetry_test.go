package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// mkSample builds a benign sample for step s with a slowly-drifting energy.
func mkSample(s int) Sample {
	return Sample{
		Step: s, Time: float64(s) * 0.001, DT: 0.001,
		EnergyDrift: 1e-9 * float64(s),
		HMin:        0.1, HMax: 0.2,
		NbrMin: 50, NbrMax: 70, NbrMean: 60,
	}
}

func feed(r *Recorder, from, to int) {
	for s := from; s <= to; s++ {
		r.Add(mkSample(s))
	}
}

func TestDownsamplingBoundedAndEndpointsPreserved(t *testing.T) {
	for _, n := range []int{1, 5, maxSamples, maxSamples + 1, 1000, 4096, 5000} {
		r := NewRecorder(nil)
		feed(r, 1, n)
		tr := r.TrackSnapshot()
		if len(tr.Samples) > maxSamples+1 {
			t.Fatalf("n=%d: %d samples exceeds bound", n, len(tr.Samples))
		}
		if tr.Samples[0].Step != 1 {
			t.Fatalf("n=%d: first retained step %d, want 1", n, tr.Samples[0].Step)
		}
		if last := tr.Samples[len(tr.Samples)-1].Step; last != n {
			t.Fatalf("n=%d: last step %d, want %d", n, last, n)
		}
		for i := 1; i < len(tr.Samples); i++ {
			if tr.Samples[i].Step <= tr.Samples[i-1].Step {
				t.Fatalf("n=%d: steps not strictly ascending at %d", n, i)
			}
		}
	}
}

func TestTruncateAfterZeroResetsSeries(t *testing.T) {
	r := NewRecorder(nil)
	feed(r, 1, 4*maxSamples)
	r.TruncateAfter(0)
	if _, ok := r.Latest(); ok {
		t.Fatal("latest sample survived full truncation")
	}
	tr := r.TrackSnapshot()
	if len(tr.Samples) != 0 {
		t.Fatalf("%d samples survived full truncation", len(tr.Samples))
	}
	feed(r, 1, 100)
	if got := r.TrackSnapshot(); len(got.Samples) == 0 || got.Samples[0].Step != 1 {
		t.Fatalf("recorder unusable after full truncation: %+v", got)
	}
}

func TestNaNWatchdogTripsOnceAndLatches(t *testing.T) {
	var fired []string
	r := NewRecorder(func(k string) { fired = append(fired, k) })
	feed(r, 1, 10)
	bad := mkSample(11)
	bad.EnergyDrift = math.NaN()
	r.Add(bad)
	bad2 := mkSample(12)
	bad2.MassDrift = math.Inf(1)
	r.Add(bad2)

	if want := []string{KindNaN}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("OnTrip fired %v, want %v", fired, want)
	}
	status, trips := r.Status()
	if status != StatusTripped || !reflect.DeepEqual(trips, []string{KindNaN}) {
		t.Fatalf("status %q trips %v", status, trips)
	}
	if tr := r.TrackSnapshot(); tr.Status != StatusTripped {
		t.Fatalf("track status %q", tr.Status)
	}
}

func TestDriftSlopeWatchdogIgnoresSingleSpike(t *testing.T) {
	// A lone corrupted drift value must be trimmed away, not fitted.
	r := NewRecorder(nil)
	for s := 1; s <= 40; s++ {
		smp := mkSample(s)
		if s == 20 {
			smp.EnergyDrift = 5.0 // gross outlier, but finite
		}
		r.Add(smp)
	}
	if status, trips := r.Status(); status != StatusOK {
		t.Fatalf("spike tripped the trimmed slope watchdog: %v", trips)
	}

	// A genuine sustained slope must trip it.
	r2 := NewRecorder(nil)
	for s := 1; s <= 40; s++ {
		smp := mkSample(s)
		smp.EnergyDrift = 0.05 * float64(s)
		r2.Add(smp)
	}
	if status, trips := r2.Status(); status != StatusTripped || trips[0] != KindDriftSlope {
		t.Fatalf("sustained drift not caught: status %q trips %v", status, trips)
	}
}

func TestDTCollapseWatchdog(t *testing.T) {
	r := NewRecorder(nil)
	feed(r, 1, 20)
	bad := mkSample(21)
	bad.DT = 1e-9
	r.Add(bad)
	status, trips := r.Status()
	if status != StatusTripped {
		t.Fatal("dt collapse not detected")
	}
	found := false
	for _, k := range trips {
		if k == KindDTCollapse {
			found = true
		}
	}
	if !found {
		t.Fatalf("trips %v missing %q", trips, KindDTCollapse)
	}
}

func TestImbalanceWatchdog(t *testing.T) {
	r := NewRecorder(nil)
	s := mkSample(1)
	s.Imbalance = maxImbalance // at the bound: not a trip
	r.Add(s)
	if status, trips := r.Status(); status != StatusOK {
		t.Fatalf("imbalance at the bound tripped: %v", trips)
	}
	s = mkSample(2)
	s.Imbalance = 2 * maxImbalance
	r.Add(s)
	if status, trips := r.Status(); status != StatusTripped || trips[0] != KindImbalance {
		t.Fatalf("imbalance not caught: %q %v", status, trips)
	}
	// Serial runs report 0 and must never trip.
	r2 := NewRecorder(nil)
	feed(r2, 1, 50)
	if status, _ := r2.Status(); status != StatusOK {
		t.Fatal("zero imbalance tripped the watchdog")
	}
}

func TestTrackJSONDeterministic(t *testing.T) {
	mk := func() []byte {
		r := NewRecorder(nil)
		for s := 1; s <= 3*maxSamples+77; s++ {
			smp := mkSample(s)
			smp.Phases = map[string]float64{"compute": 0.9, "halo": 0.05, "collective": 0.05}
			r.Add(smp)
		}
		b, err := json.Marshal(r.TrackSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(), mk()
	if string(a) != string(b) {
		t.Fatal("identical feeds produced different JSON tracks")
	}
}

func TestLatestReflectsMostRecentAdd(t *testing.T) {
	r := NewRecorder(nil)
	if _, ok := r.Latest(); ok {
		t.Fatal("empty recorder claims a latest sample")
	}
	n := 2*maxSamples + 3 // past the bound, and not on the stride
	feed(r, 1, n)
	last, ok := r.Latest()
	if !ok || last.Step != n {
		t.Fatalf("latest = %+v ok=%v, want step %d", last, ok, n)
	}
}

// TestNonFiniteSamplesStillEncode: a NaN/Inf-bearing sample trips the
// watchdog but the stored track must still be valid JSON — the raw values
// are scrubbed to 0 after the watchdogs ran.
func TestNonFiniteSamplesStillEncode(t *testing.T) {
	r := NewRecorder(nil)
	s := mkSample(1)
	s.EnergyDrift = math.NaN()
	s.HMax = math.Inf(1)
	r.Add(s)
	b, err := json.Marshal(r.TrackSnapshot())
	if err != nil {
		t.Fatalf("track with non-finite inputs failed to encode: %v", err)
	}
	var track Track
	if err := json.Unmarshal(b, &track); err != nil {
		t.Fatal(err)
	}
	if track.Status != StatusTripped {
		t.Fatalf("status %q, want tripped", track.Status)
	}
	if got := track.Samples[0].EnergyDrift; got != 0 {
		t.Fatalf("scrubbed drift = %v, want 0", got)
	}
	if last, ok := r.Latest(); !ok || math.IsInf(last.HMax, 0) {
		t.Fatalf("Latest not scrubbed: %+v", last)
	}
}

// Status returns the watchdog verdict: StatusOK or StatusTripped plus the
// tripped kinds in first-trip order.
func (r *Recorder) Status() (string, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.trips) == 0 {
		return StatusOK, nil
	}
	return StatusTripped, append([]string(nil), r.trips...)
}

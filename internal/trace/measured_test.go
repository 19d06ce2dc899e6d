package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/obs"
)

func sampleInput() MeasuredInput {
	return MeasuredInput{
		Ranks: []RankTotals{
			{Rank: 0, Compute: 4.0, Halo: 0.5, Collective: 0.25, Seconds: 4.75},
			{Rank: 1, Compute: 3.0, Halo: 0.75, Collective: 1.0, Seconds: 4.75},
		},
		Steps: []StepClassSeconds{
			{Step: 1, Compute: 2.0, Halo: 0.3, Collective: 0.4},
			{Step: 2, Compute: 3.0, Halo: 0.6, Collective: 0.5},
			{Step: 3, Compute: 2.0, Halo: 0.35, Collective: 0.35},
		},
		Lifecycle: []obs.Phase{
			{Name: "queue-wait", Seconds: 0.01},
			{Name: "run", Seconds: 4.75},
			{Name: "verify", Seconds: 0.002},
		},
		Offset: 0.01,
	}
}

// Per-rank per-class interval sums must reproduce the timing totals — the
// invariant the smoke contract checks against the persisted report.
func TestBuildMeasuredSumsMatchTotals(t *testing.T) {
	in := sampleInput()
	m := BuildMeasured(in)
	sums := map[int]map[string]float64{}
	for _, iv := range m.Intervals {
		if sums[iv.Rank] == nil {
			sums[iv.Rank] = map[string]float64{}
		}
		sums[iv.Rank][iv.Phase] += iv.End - iv.Start
	}
	for _, rk := range in.Ranks {
		got := sums[rk.Rank]
		for _, c := range []struct {
			phase string
			want  float64
		}{{PhaseCompute, rk.Compute}, {PhaseHalo, rk.Halo}, {PhaseCollective, rk.Collective}} {
			if math.Abs(got[c.phase]-c.want) > 1e-12 {
				t.Errorf("rank %d %s = %g, want %g", rk.Rank, c.phase, got[c.phase], c.want)
			}
		}
	}
}

// TestMeasuredMetricsAreAFunctionOfTheRankTotals: the POP block of a
// reassembled trace is POP over the rank totals it was built from, down to
// the last bit and on every call. Sixteen ranks with distinct useful totals
// have many float sums depending on the order of addition; only the
// rank-order one may come back (the interval analysis this replaces added
// ranks in map order and returned several).
func TestMeasuredMetricsAreAFunctionOfTheRankTotals(t *testing.T) {
	in := sampleInput()
	in.Ranks = make([]RankTotals, 16)
	sum := 0.0
	for r := range in.Ranks {
		c := 1 / float64(3+7*r)
		in.Ranks[r] = RankTotals{Rank: r, Compute: c, Halo: c / 9, Collective: 0.5 - c, Seconds: 0.5 + c/9}
		sum += c
	}
	want := POP(in.Ranks, in.Ranks[0].Seconds) // rank 0 has the latest clock
	if want.TotalUseful != sum || want.Ranks != 16 {
		t.Fatalf("POP total useful %v over %d ranks, want the rank-order sum %v over 16", want.TotalUseful, want.Ranks, sum)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		m := BuildMeasured(in).Metrics
		seen[math.Float64bits(m.AvgUseful)] = true
		if m != want {
			t.Fatalf("call %d: measured metrics %+v, want POP of the rank totals %+v", i, m, want)
		}
	}
	if len(seen) != 1 {
		t.Fatalf("%d distinct AvgUseful bit patterns over 2000 calls", len(seen))
	}
}

func TestBuildMeasuredMonotonePerRank(t *testing.T) {
	m := BuildMeasured(sampleInput())
	last := map[int]float64{}
	for _, iv := range m.Intervals {
		if iv.Start < last[iv.Rank] {
			t.Fatalf("rank %d interval starts at %g before previous end %g", iv.Rank, iv.Start, last[iv.Rank])
		}
		if iv.End < iv.Start {
			t.Fatalf("negative interval: %+v", iv)
		}
		last[iv.Rank] = iv.End
	}
	// Engine intervals start at the lifecycle offset, not zero.
	if m.Intervals[0].Start != 0.01 {
		t.Errorf("first engine interval at %g, want offset 0.01", m.Intervals[0].Start)
	}
}

func TestBuildMeasuredNoSteps(t *testing.T) {
	in := sampleInput()
	in.Steps = nil
	m := BuildMeasured(in)
	// One pseudo-step: three intervals per rank.
	if len(m.Intervals) != 6 {
		t.Fatalf("%d intervals, want 6", len(m.Intervals))
	}
	if m.Metrics.Ranks != 2 {
		t.Errorf("ranks = %d", m.Metrics.Ranks)
	}
}

func TestBuildMeasuredZeroClass(t *testing.T) {
	in := sampleInput()
	// A class the telemetry never saw: weights fall back to uniform, and
	// the rank totals still distribute fully.
	for i := range in.Steps {
		in.Steps[i].Collective = 0
	}
	m := BuildMeasured(in)
	var coll float64
	for _, iv := range m.Intervals {
		if iv.Rank == 1 && iv.Phase == PhaseCollective {
			coll += iv.End - iv.Start
		}
	}
	if math.Abs(coll-1.0) > 1e-12 {
		t.Errorf("rank 1 collective sum = %g, want 1.0", coll)
	}
}

func TestBuildMeasuredSerial(t *testing.T) {
	in := MeasuredInput{
		Serial: []SerialStep{
			{Step: 1, Phases: []PhaseSpan{{"A", 0.1}, {"B", 0.2}, {"E", 0.3}}},
			{Step: 2, Phases: []PhaseSpan{{"A", 0.1}, {"B", 0.0}, {"E", 0.25}}},
		},
		Lifecycle: []obs.Phase{{Name: "run", Seconds: 0.95}},
	}
	m := BuildMeasured(in)
	// Zero-duration phases are dropped: 3 + 2 intervals.
	if len(m.Intervals) != 5 {
		t.Fatalf("%d intervals, want 5", len(m.Intervals))
	}
	for _, iv := range m.Intervals {
		if iv.Rank != 0 || iv.State != Compute {
			t.Fatalf("serial interval not rank-0 compute: %+v", iv)
		}
	}
	end := m.Intervals[len(m.Intervals)-1].End
	if math.Abs(end-0.95) > 1e-12 {
		t.Errorf("serial timeline ends at %g, want 0.95", end)
	}
	if m.Metrics.Ranks != 1 {
		t.Errorf("ranks = %d", m.Metrics.Ranks)
	}
}

func TestBuildMeasuredLifecycleTrack(t *testing.T) {
	m := BuildMeasured(sampleInput())
	if len(m.Lifecycle) != 3 {
		t.Fatalf("%d lifecycle intervals", len(m.Lifecycle))
	}
	if m.Lifecycle[0].Start != 0 || m.Lifecycle[1].Phase != "run" {
		t.Errorf("lifecycle layout wrong: %+v", m.Lifecycle)
	}
	if math.Abs(m.Lifecycle[2].End-(0.01+4.75+0.002)) > 1e-12 {
		t.Errorf("lifecycle end = %g", m.Lifecycle[2].End)
	}
}

// Equal inputs must re-encode to byte-identical documents — the trace
// determinism invariant the API extends to cache hits and restarts.
func TestDocumentDeterministic(t *testing.T) {
	meta := map[string]string{"hash": "abc", "scenario": "sod"}
	pop := &POPComparison{Measured: BuildMeasured(sampleInput()).Metrics.Report()}
	a, err := json.Marshal(BuildMeasured(sampleInput()).Document(meta, pop))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(BuildMeasured(sampleInput()).Document(map[string]string{"scenario": "sod", "hash": "abc"}, pop))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("documents differ:\n%s\n%s", a, b)
	}
}

func TestDocumentSchema(t *testing.T) {
	doc := BuildMeasured(sampleInput()).Document(map[string]string{"hash": "x"}, nil)
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var procs, threads, slices int
	lastTS := map[[2]int]float64{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				procs++
			case "thread_name":
				threads++
			default:
				t.Errorf("unknown metadata event %q", ev.Name)
			}
			if ev.Args["name"] == "" {
				t.Errorf("metadata event without args.name: %+v", ev)
			}
		case "X":
			slices++
			if ev.TS < 0 || ev.Dur <= 0 {
				t.Errorf("bad slice timing: %+v", ev)
			}
			if ev.Cat != CatPhase && ev.Cat != CatLifecycle {
				t.Errorf("unknown category %q", ev.Cat)
			}
			key := [2]int{ev.PID, ev.TID}
			if ev.TS < lastTS[key] {
				t.Errorf("track %v timestamps not monotone: %g after %g", key, ev.TS, lastTS[key])
			}
			lastTS[key] = ev.TS
		default:
			t.Errorf("unknown ph %q", ev.Ph)
		}
	}
	if procs != 2 {
		t.Errorf("%d process_name events, want 2", procs)
	}
	if threads != 3 { // lifecycle row + 2 ranks
		t.Errorf("%d thread_name events, want 3", threads)
	}
	if slices == 0 {
		t.Error("no slices")
	}
}

func TestInstrumentedSliceSkipsZeroDur(t *testing.T) {
	var p Perfetto
	p.SliceData(CatPhase, PhaseCompute, 1, 0, 0, 0, nil)
	if len(p.Events()) != 0 {
		t.Fatalf("zero-duration slice emitted: %+v", p.Events())
	}
	p.SliceData(CatPhase, PhaseCompute, 1, 0, 0.5, 0.25, nil)
	ev := p.Events()[0]
	if ev.TS != 0.5e6 || ev.Dur != 0.25e6 {
		t.Fatalf("microsecond conversion wrong: %+v", ev)
	}
}

func TestMetricsReport(t *testing.T) {
	m := BuildMeasured(sampleInput()).Metrics
	r := m.Report()
	if r.Ranks != m.Ranks || r.LoadBalance != m.LoadBalance || r.Runtime != m.Runtime {
		t.Fatalf("report mismatch: %+v vs %+v", r, m)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"ranks"`, `"loadBalance"`, `"commEfficiency"`, `"parallelEfficiency"`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Errorf("report JSON missing %s: %s", key, b)
		}
	}
}

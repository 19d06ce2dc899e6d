package experiments

import (
	"math"
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func strongSweep(cores ...int) ScalingSweep {
	return ScalingSweep{
		Base: scenario.JobSpec{Spec: scenario.Spec{
			Scenario: "sedov",
			Params:   scenario.Params{N: 216, NNeighbors: 20, Extra: map[string]float64{"energy": 1}},
			Steps:    3,
		}},
		Cores: cores,
	}
}

func TestScalingSweepCanonicalization(t *testing.T) {
	sw := strongSweep(48, 12, 48, 24)
	sw.Base.Cores = 999 // template run shape is ignored
	c, err := sw.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(c.Cores), 3; got != want {
		t.Fatalf("canonical ladder %v, want 3 sorted distinct counts", c.Cores)
	}
	for i, want := range []int{12, 24, 48} {
		if c.Cores[i] != want {
			t.Fatalf("canonical ladder %v, want [12 24 48]", c.Cores)
		}
	}
	if c.Base.Cores != 12 {
		t.Fatalf("base cores %d, want the smallest ladder point 12", c.Base.Cores)
	}
	if c.Mode != "" {
		t.Fatalf("canonical strong mode %q, want omitted", c.Mode)
	}

	// The default mode spelled out hashes identically to omitted, and the
	// ignored template cores never reach the hash.
	h1, err := sw.Hash()
	if err != nil {
		t.Fatal(err)
	}
	spelled := strongSweep(12, 24, 48)
	spelled.Mode = ScalingStrong
	spelled.Base.Cores = 7
	h2, err := spelled.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("equivalent sweeps hashed apart: %s vs %s", h1, h2)
	}

	// A different ladder is a different experiment.
	other := strongSweep(12, 24)
	h3, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("different ladders share a hash")
	}

	// Domain separation from job hashes: the base member at the base core
	// count must not collide with the sweep itself.
	jh, err := sw.Base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if jh == h1 {
		t.Fatal("sweep hash collides with its base job hash")
	}
}

func TestScalingSweepValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ScalingSweep)
	}{
		{"no cores", func(sw *ScalingSweep) { sw.Cores = nil }},
		{"one distinct core count", func(sw *ScalingSweep) { sw.Cores = []int{8, 8} }},
		{"non-positive cores", func(sw *ScalingSweep) { sw.Cores = []int{0, 8} }},
		{"unknown mode", func(sw *ScalingSweep) { sw.Mode = "sideways" }},
		{"strong with particlesPerCore", func(sw *ScalingSweep) { sw.ParticlesPerCore = 100 }},
		{"weak without particlesPerCore", func(sw *ScalingSweep) { sw.Mode = ScalingWeak }},
		{"serial base backend", func(sw *ScalingSweep) { sw.Base.Exec.Backend = scenario.BackendSerial }},
		{"serial arm backend", func(sw *ScalingSweep) {
			sw.Arms = []ScalingArm{{Exec: scenario.Exec{Backend: scenario.BackendSerial}}}
		}},
		{"duplicate arm execs", func(sw *ScalingSweep) {
			sw.Arms = []ScalingArm{
				{Exec: scenario.Exec{Machine: "daint"}},
				{Exec: scenario.Exec{Machine: "pizdaint"}}, // alias of daint
			}
		}},
		{"unknown scenario", func(sw *ScalingSweep) { sw.Base.Scenario = "nope" }},
	}
	for _, tc := range cases {
		sw := strongSweep(4, 8)
		tc.mut(&sw)
		if _, err := sw.Canonical(); err == nil {
			t.Errorf("%s: Canonical accepted an invalid sweep", tc.name)
		}
	}
}

func TestScalingSweepWeakAndArms(t *testing.T) {
	sw := strongSweep(4, 8)
	sw.Mode = ScalingWeak
	sw.ParticlesPerCore = 100
	sw.Base.Params.N = 999999 // ignored: the ladder defines it
	c, err := sw.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Base.Params.N != 400 {
		t.Fatalf("weak base N %d, want particlesPerCore*cores[0] = 400", c.Base.Params.N)
	}
	if m := c.Member(0, 8); m.Params.N != 800 || m.Cores != 8 {
		t.Fatalf("weak member at 8 cores: N=%d cores=%d, want N=800 cores=8", m.Params.N, m.Cores)
	}

	paired := strongSweep(4, 8)
	paired.Base.Exec = scenario.Exec{Machine: "daint"} // ignored once arms exist
	paired.Arms = []ScalingArm{
		{Exec: scenario.Exec{Machine: "daint"}},
		{Exec: scenario.Exec{Machine: "marenostrum"}},
	}
	pc, err := paired.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !pc.Base.Exec.IsZero() {
		t.Fatalf("armed sweep kept base exec %+v", pc.Base.Exec)
	}
	if pc.Arms[0].Name != "daint" || pc.Arms[1].Name != "marenostrum" {
		t.Fatalf("arm names %q/%q, want canonical machine spellings", pc.Arms[0].Name, pc.Arms[1].Name)
	}
	if m := pc.Member(1, 8); m.Exec.Machine != "marenostrum" || m.Cores != 8 {
		t.Fatalf("arm-1 member: %+v", m.Exec)
	}
	// Base exec differences must not leak into the hash once arms rule.
	unarmedExec := strongSweep(4, 8)
	unarmedExec.Arms = paired.Arms
	h1, _ := paired.Hash()
	h2, _ := unarmedExec.Hash()
	if h1 != h2 {
		t.Fatal("armed sweeps differing only in the ignored base exec hashed apart")
	}
}

// TestFitAmdahlRecovery synthesizes an exact Amdahl curve, perturbs one
// member into an outlier, and checks the trimmed fit still recovers the
// serial fraction.
func TestFitAmdahlRecovery(t *testing.T) {
	const s, t1 = 0.08, 2.0
	cores := []int{12, 24, 48, 96, 192, 384}
	tps := make([]float64, len(cores))
	for i, c := range cores {
		p := float64(c) / float64(cores[0])
		tps[i] = t1 * (s + (1-s)/p)
	}

	fit, err := FitAmdahl(cores, tps, DefaultFitKeep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.SerialFraction-s) > 1e-9 {
		t.Fatalf("clean fit serial fraction %.6f, want %.6f", fit.SerialFraction, s)
	}
	if math.Abs(fit.T1-t1) > 1e-9 || fit.R2 < 0.999999 {
		t.Fatalf("clean fit T1=%.6f R2=%.6f, want T1=%g R2~1", fit.T1, fit.R2, t1)
	}

	// One wildly mis-modeled member: the trimmed fit must shrug it off.
	dirty := append([]float64(nil), tps...)
	dirty[3] *= 5
	fit, err = FitAmdahl(cores, dirty, DefaultFitKeep)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Trimmed == 0 {
		t.Fatal("trimmed fit discarded nothing despite an outlier")
	}
	if math.Abs(fit.SerialFraction-s) > 1e-6 {
		t.Fatalf("trimmed fit serial fraction %.6f, want %.6f despite the outlier", fit.SerialFraction, s)
	}

	// Degenerate inputs are loud errors.
	if _, err := FitAmdahl(cores[:1], tps[:1], DefaultFitKeep); err == nil {
		t.Error("single-point fit accepted")
	}
	if _, err := FitAmdahl([]int{4, 8}, []float64{1, 0}, DefaultFitKeep); err == nil {
		t.Error("non-positive timing accepted")
	}
}

func TestKarpFlattMatchesAmdahl(t *testing.T) {
	// On an exact Amdahl curve the Karp-Flatt metric returns the serial
	// fraction at every point past the base.
	const s = 0.12
	for _, ratio := range []float64{2, 4, 16} {
		speedup := 1 / (s + (1-s)/ratio)
		if got := KarpFlatt(speedup, ratio); math.Abs(got-s) > 1e-12 {
			t.Errorf("KarpFlatt at ratio %g = %.9f, want %g", ratio, got, s)
		}
	}
	if KarpFlatt(1, 1) != 0 {
		t.Error("KarpFlatt at the base point should be 0")
	}
}

// TestRunParallelTimingInvariants pins the engine-side capture: the
// distributed run reports per-rank phase breakdowns that sum to each rank's
// clock, with the parallel wall-clock as the max, and a live trace of the
// same run describes the same clock — every second charged as compute
// (the fixed per-step overhead included) is on the timeline.
func TestRunParallelTimingInvariants(t *testing.T) {
	code, err := codes.ByName("sphynx")
	if err != nil {
		t.Fatal(err)
	}
	ps, cfg, err := generate(code, codes.SquarePatch, 1000)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := perfmodel.ByName("daint")
	if err != nil {
		t.Fatal(err)
	}
	cost := code.Cost(codes.SquarePatch)
	if cost.FixedPerStep <= 0 {
		t.Fatal("the calibration under test charges no fixed per-step overhead")
	}
	tr := trace.New()
	_, res, err := core.RunParallelCapture(core.ParallelConfig{
		Core: cfg, Machine: machine, Cores: 24, RanksPerNode: 1,
		Decomp: code.Decomp, Cost: cost, Steps: 2, Tracer: tr,
	}, ps)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm == nil {
		t.Fatal("parallel run reported no timing")
	}
	if tm.Ranks != res.Ranks || len(tm.PerRank) != res.Ranks {
		t.Fatalf("timing ranks %d (%d entries), want %d", tm.Ranks, len(tm.PerRank), res.Ranks)
	}
	if tm.Steps != 2 {
		t.Fatalf("timing steps %d, want 2", tm.Steps)
	}
	maxClock := 0.0
	for _, rt := range tm.PerRank {
		total := rt.Compute + rt.Halo + rt.Collective
		if rt.Seconds <= 0 || math.Abs(total-rt.Seconds) > 1e-9*rt.Seconds {
			t.Fatalf("rank %d: phases sum %.12g != clock %.12g", rt.Rank, total, rt.Seconds)
		}
		if rt.Seconds > maxClock {
			maxClock = rt.Seconds
		}
	}
	if math.Abs(tm.Seconds-maxClock) > 1e-12*maxClock {
		t.Fatalf("timing wall-clock %.12g != max rank clock %.12g", tm.Seconds, maxClock)
	}
	traced := make([]float64, res.Ranks)
	for _, iv := range tr.Intervals() {
		if iv.State == trace.Compute {
			traced[iv.Rank] += iv.End - iv.Start
		}
	}
	for _, rt := range tm.PerRank {
		if math.Abs(traced[rt.Rank]-rt.Compute) > 1e-12*rt.Compute {
			t.Errorf("rank %d: traced compute %.15g != timing record %.15g", rt.Rank, traced[rt.Rank], rt.Compute)
		}
	}

	// Merge accumulates like a second chunk of the same shape.
	merged := &core.RunTiming{}
	merged.Merge(tm)
	merged.Merge(tm)
	if merged.Steps != 2*tm.Steps || math.Abs(merged.Seconds-2*tm.Seconds) > 1e-12 {
		t.Fatalf("merge: steps %d seconds %g, want doubled", merged.Steps, merged.Seconds)
	}
	if math.Abs(merged.PerRank[0].Compute-2*tm.PerRank[0].Compute) > 1e-12 {
		t.Fatal("merge did not accumulate per-rank compute")
	}
}

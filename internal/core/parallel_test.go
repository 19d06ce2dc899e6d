package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/eos"
	"repro/internal/gravity"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/part"
	"repro/internal/perfmodel"
	"repro/internal/sph"
	"repro/internal/trace"
	"repro/internal/ts"
)

func testCost() CodeCost {
	return CodeCost{
		TreeRate: 1e6, SearchRate: 5e6, PairRate: 2e6, EOSRate: 1e8,
		GravNodeRate: 3e6, GravPairRate: 3e6, UpdateRate: 1e8,
		HSweeps: 3, FixedPerStep: 0.01,
		SerialFraction: map[PhaseID]float64{PhaseTree: 0.3},
	}
}

func evrardParallelCfg(t *testing.T, cores int, decomp domain.Method, dynamic bool) (ParallelConfig, *part.Set) {
	t.Helper()
	ev := ic.DefaultEvrard(3000)
	ev.NNeighbors = 40
	ps, pbc, box := ev.Generate(nil)
	cfg := ParallelConfig{
		Core: Config{
			SPH: sph.Params{
				Kernel: kernel.NewSinc(5), EOS: eos.NewIdealGas(5.0 / 3.0),
				NNeighbors: 40, Gradients: sph.IAD, Volumes: sph.GeneralizedVolume,
				PBC: pbc, Box: box,
			},
			Gravity: true, GravOrder: gravity.Quadrupole, Theta: 0.6, Eps: 0.02, G: 1,
			Stepping: ts.Global,
		},
		Machine:      perfmodel.PizDaint(),
		Cores:        cores,
		RanksPerNode: 1,
		Decomp:       decomp,
		DynamicLB:    dynamic,
		Cost:         testCost(),
		Steps:        3,
	}
	return cfg, ps
}

func TestParallelScalingMonotone(t *testing.T) {
	// More cores must yield smaller simulated step time in the scaling
	// regime, and the halo fraction must grow.
	var prev float64 = math.Inf(1)
	var prevHalo float64 = -1
	for _, cores := range []int{12, 48, 192} {
		cfg, ps := evrardParallelCfg(t, cores, domain.MortonSFC, false)
		cfg.WorkScale = 100 // model a larger problem: keeps comm subdominant
		_, res, err := RunParallelCapture(cfg, ps)
		if err != nil {
			t.Fatal(err)
		}
		if res.AvgStepSeconds <= 0 {
			t.Fatalf("cores=%d: non-positive step time", cores)
		}
		if res.AvgStepSeconds >= prev {
			t.Errorf("cores=%d: step time %g did not improve on %g", cores, res.AvgStepSeconds, prev)
		}
		if cores > 12 && res.HaloFraction <= prevHalo {
			t.Errorf("cores=%d: halo fraction %g did not grow from %g", cores, res.HaloFraction, prevHalo)
		}
		prev = res.AvgStepSeconds
		prevHalo = res.HaloFraction
	}
}

func TestParallelORBAndDynamicLB(t *testing.T) {
	for _, m := range []domain.Method{domain.ORB, domain.HilbertSFC} {
		cfg, ps := evrardParallelCfg(t, 48, m, m == domain.HilbertSFC)
		_, res, err := RunParallelCapture(cfg, ps)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.AvgStepSeconds <= 0 {
			t.Fatalf("%v: no time", m)
		}
	}
}

func TestParallelTracerPopulates(t *testing.T) {
	cfg, ps := evrardParallelCfg(t, 48, domain.MortonSFC, false)
	cfg.Tracer = trace.New()
	_, res, err := RunParallelCapture(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	m := trace.POP(res.Timing.PerRank, res.Timing.Seconds)
	if m.Ranks != 4 {
		t.Fatalf("metrics over %d ranks, want 4", m.Ranks)
	}
	if m.LoadBalance <= 0 || m.LoadBalance > 1 {
		t.Errorf("load balance %g out of (0,1]", m.LoadBalance)
	}
	if m.CommEfficiency <= 0 || m.CommEfficiency > 1+1e-9 {
		t.Errorf("comm efficiency %g out of (0,1]", m.CommEfficiency)
	}
	tl := trace.TimelineOf(cfg.Tracer.Intervals(), 80)
	if len(tl) == 0 {
		t.Error("empty timeline")
	}
	breakdown := trace.PhaseBreakdownOf(cfg.Tracer.Intervals())
	if len(breakdown) < 5 {
		t.Errorf("phase breakdown has %d phases", len(breakdown))
	}
}

func TestParallelSquarePatchRuns(t *testing.T) {
	sp := ic.DefaultSquarePatch(8000)
	sp.NNeighbors = 40
	ps, pbc, box := sp.Generate(nil)
	cfg := ParallelConfig{
		Core: Config{
			SPH: sph.Params{
				Kernel: kernel.NewWendlandC2(), EOS: eos.NewTait(sp.Rho0, sp.SoundSpeed, 7),
				NNeighbors: 40, PBC: pbc, Box: box,
			},
			Stepping: ts.Adaptive,
		},
		Machine:      perfmodel.MareNostrum(),
		Cores:        96,
		RanksPerNode: 48, // MPI-only placement
		Decomp:       domain.ORB,
		Cost:         testCost(),
		Steps:        2,
	}
	_, res, err := RunParallelCapture(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks != 96 {
		t.Fatalf("MPI-only on 2 nodes: %d ranks, want 96", res.Ranks)
	}
	if res.ThreadsPerRank != 1 {
		t.Fatalf("threads per rank = %d, want 1", res.ThreadsPerRank)
	}
}

func TestParallelEngineAbortsOnRankPanic(t *testing.T) {
	// A panic on a rank goroutine (here injected via OnStep on rank 0, in
	// reality a physics blowup inside a kernel) must come back as a run
	// error with the panic value — not a process crash, not a deadlock of
	// the surviving ranks.
	cfg, ps := evrardParallelCfg(t, 24, domain.MortonSFC, false)
	cfg.Steps = 1
	cfg.OnStep = func(step int, simT, dt float64) { panic("onstep blowup") }
	_, _, err := RunParallelCapture(cfg, ps)
	if err == nil {
		t.Fatal("rank panic did not surface as an error")
	}
	if !strings.Contains(err.Error(), "aborted") || !strings.Contains(err.Error(), "onstep blowup") {
		t.Fatalf("error %q missing abort context or panic value", err)
	}
}

package experiments

import (
	"strings"
	"testing"

	"repro/internal/codes"
)

// fastOpt keeps experiment tests quick: small executed N, few steps, short
// core ladder; WorkScale still models the paper's 1e6 particles.
func fastOpt() Options {
	return Options{
		N:     PaperN,
		ExecN: 4000,
		Steps: 2,
		Cores: []int{12, 48, 192},
	}
}

var daint = []string{"daint"}

func TestRunScalingSPHYNXSquareShape(t *testing.T) {
	s, err := RunScaling("sphynx", codes.SquarePatch, daint, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Arms) != 1 || len(s.Arms[0].Points) != 3 {
		t.Fatalf("result shape %+v, want one arm of 3 points", s)
	}
	pts := s.Arms[0].Points
	// Acceptance criterion 1 (README, "Scaling studies"): single-node
	// per-step time in the tens of seconds for the modeled 1e6-particle
	// problem (paper: 38.25 s).
	t12 := pts[0].SecondsPerStep
	if t12 < 10 || t12 > 150 {
		t.Errorf("SPHYNX square at 12 cores: %.1f s/step, want O(40)", t12)
	}
	// Strong scaling: monotone decrease over the ladder.
	for i := 1; i < len(pts); i++ {
		if pts[i].SecondsPerStep >= pts[i-1].SecondsPerStep {
			t.Errorf("no speedup from %d to %d cores: %.2f -> %.2f",
				pts[i-1].Cores, pts[i].Cores, pts[i-1].SecondsPerStep, pts[i].SecondsPerStep)
		}
	}
	// Efficiency at 16x the cores is below ideal (the paper's stall story).
	if sp := pts[2].Speedup; sp >= 16 {
		t.Errorf("16x cores gave %gx speedup: missing the scaling stall", sp)
	} else if sp < 2 {
		t.Errorf("16x cores gave %gx speedup: no scaling at all", sp)
	}
	// The offline harness gets what only the served sweeps had: the fit.
	if s.Arms[0].Fit == nil || s.Arms[0].Fit.SerialFraction <= 0 {
		t.Errorf("no Amdahl fit on an offline strong ladder: %+v", s.Arms[0].Fit)
	}
	out := s.Format()
	if !strings.Contains(out, "arm daint/sphynx") || !strings.Contains(out, "cores") {
		t.Errorf("Format output malformed:\n%s", out)
	}
}

func TestChaNGaSquareMuchSlowerThanSPHYNX(t *testing.T) {
	// Acceptance criterion 2: ChaNGa's square-patch step time is 1-2 orders
	// of magnitude above SPHYNX at equal core counts (Fig. 2a vs Fig. 1a).
	opt := fastOpt()
	opt.Cores = []int{12, 48}
	sx, err := RunScaling("sphynx", codes.SquarePatch, daint, opt)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := RunScaling("changa", codes.SquarePatch, daint, opt)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ch.Arms[0].Points[0].SecondsPerStep / sx.Arms[0].Points[0].SecondsPerStep
	if ratio < 5 || ratio > 100 {
		t.Errorf("ChaNGa/SPHYNX square ratio = %.1f, want O(20) (paper: 738/38)", ratio)
	}
}

func TestMachinesComparable(t *testing.T) {
	// Acceptance criterion 3: Piz Daint and MareNostrum curves are close at
	// equal core counts (Fig. 1: the red and blue lines nearly coincide).
	// The two machines are the arms of one result, so the comparison is the
	// result's own paired ratio.
	opt := fastOpt()
	opt.Cores = []int{48, 192}
	r, err := RunScaling("sphynx", codes.SquarePatch, bothMachines, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Arms) != 2 || len(r.Pairs) != 1 || len(r.Pairs[0].Ratios) != 2 {
		t.Fatalf("result shape: %d arms, pairs %+v", len(r.Arms), r.Pairs)
	}
	// Ratios are MareNostrum over Daint.
	for i, ratio := range r.Pairs[0].Ratios {
		if ratio < 0.4 || ratio > 2 {
			t.Errorf("MareNostrum/Daint ratio at %d cores = %.2f, want within ~2x", opt.Cores[i], ratio)
		}
	}
}

func TestFig3SPHflow(t *testing.T) {
	opt := fastOpt()
	opt.Cores = []int{12, 96}
	panels, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 1 || len(panels[0].Arms) != 2 {
		t.Fatalf("Figure 3 is one panel with two machine arms, have %+v", panels)
	}
	for _, arm := range panels[0].Arms {
		if !strings.HasSuffix(arm.Name, "/sphflow") || arm.Exec.Cost != "sphflow" {
			t.Errorf("arm %q exec %+v", arm.Name, arm.Exec)
		}
		// MPI-only: ranks == cores.
		for _, p := range arm.Points {
			if p.Ranks != p.Cores {
				t.Errorf("SPH-flow at %d cores has %d ranks, want MPI-only", p.Cores, p.Ranks)
			}
		}
		if arm.Points[1].SecondsPerStep >= arm.Points[0].SecondsPerStep {
			t.Errorf("%s: no strong scaling", arm.Name)
		}
	}
}

func TestFig4TimelineAndMetrics(t *testing.T) {
	opt := fastOpt()
	res, err := Fig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoresUsed != 192 {
		t.Errorf("cores = %d", res.CoresUsed)
	}
	for _, want := range []string{"phase", "legend", "#", "r0", "r15"} {
		if !strings.Contains(res.Timeline, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
	// All Algorithm 1 phases appear in the breakdown (A, B, E, F, G, H, I, J
	// labels — G present because SPHYNX uses IAD, I because Evrard has
	// gravity).
	labels := map[string]bool{}
	for _, ph := range res.Phases {
		labels[ph.Phase] = true
	}
	for _, want := range []string{"A", "B", "E", "F", "G", "H", "I", "J"} {
		if !labels[want] {
			t.Errorf("phase %s missing from breakdown (have %v)", want, labels)
		}
	}
	if res.Metrics.LoadBalance <= 0 || res.Metrics.LoadBalance > 1 {
		t.Errorf("load balance %g", res.Metrics.LoadBalance)
	}
}

func TestPOPSweepShape(t *testing.T) {
	opt := fastOpt()
	opt.Cores = []int{48, 192}
	s, err := RunScaling("sphynx", codes.SquarePatch, daint, opt)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Arms[0].Points
	if len(pts) != 2 || pts[0].POP == nil || pts[1].POP == nil {
		t.Fatalf("points %+v", pts)
	}
	// §5.2: global efficiency decreases from 48 to 192 cores.
	if pts[1].POP.GlobalEfficiency >= pts[0].POP.GlobalEfficiency {
		t.Errorf("global efficiency did not decline: %.3f -> %.3f",
			pts[0].POP.GlobalEfficiency, pts[1].POP.GlobalEfficiency)
	}
	if out := s.Format(); !strings.Contains(out, "global") {
		t.Errorf("Format carries no POP columns:\n%s", out)
	}
}

func TestTables(t *testing.T) {
	for n := 1; n <= 5; n++ {
		out, err := Table(n)
		if err != nil || out == "" {
			t.Errorf("Table(%d): %v", n, err)
		}
	}
	if _, err := Table(6); err == nil {
		t.Error("Table(6) accepted")
	}
}

func TestRunScalingErrors(t *testing.T) {
	if _, err := RunScaling("gadget", codes.SquarePatch, daint, fastOpt()); err == nil {
		t.Error("unknown code accepted")
	}
	if _, err := RunScaling("sphynx", codes.SquarePatch, []string{"summit"}, fastOpt()); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := RunScaling("sphflow", codes.Evrard, daint, fastOpt()); err == nil {
		t.Error("SPH-flow Evrard accepted (no gravity)")
	}
	if _, err := RunScaling("sphynx", codes.Test("sedov"), daint, fastOpt()); err == nil {
		t.Error("test outside the paper's two accepted (no calibration fits it)")
	}
}

// TestWeakScaling: at fixed particles-per-core, time per step should stay
// within a modest factor of the single-node value (the production regime
// the paper flags as future work).
func TestWeakScaling(t *testing.T) {
	opt := fastOpt()
	opt.Cores = []int{12, 48, 192}
	s, err := RunWeakScaling("sphynx", codes.SquarePatch, daint, 5000, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode != ScalingWeak || len(s.Arms) != 1 || len(s.Arms[0].Points) != 3 {
		t.Fatalf("result shape %+v, want one weak arm of 3 points", s)
	}
	if s.Arms[0].Fit != nil {
		t.Error("a weak ladder has no Amdahl fit")
	}
	pts := s.Arms[0].Points
	if pts[0].Efficiency != 1 {
		t.Errorf("base efficiency %g", pts[0].Efficiency)
	}
	for _, p := range pts {
		if p.N != 5000*p.Cores {
			t.Errorf("cores=%d modeled N=%d, want %d", p.Cores, p.N, 5000*p.Cores)
		}
		if p.SecondsPerStep <= 0 {
			t.Fatalf("cores=%d: no time", p.Cores)
		}
		// Weak scaling holds far better than strong scaling at the same
		// core counts: efficiency stays above 30% here (vs the strong-
		// scaling collapse), though halo redundancy still charges a toll.
		if p.Efficiency < 0.3 {
			t.Errorf("cores=%d weak efficiency %.3f too low", p.Cores, p.Efficiency)
		}
	}
	if !strings.Contains(s.Format(), "weak scaling") {
		t.Error("Format malformed")
	}
}

func TestWeakScalingErrors(t *testing.T) {
	if _, err := RunWeakScaling("nope", codes.SquarePatch, daint, 1000, fastOpt()); err == nil {
		t.Error("unknown code accepted")
	}
	if _, err := RunWeakScaling("sphynx", codes.SquarePatch, []string{"nope"}, 1000, fastOpt()); err == nil {
		t.Error("unknown machine accepted")
	}
}

package codes

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/gravity"
	"repro/internal/perfmodel"
	"repro/internal/sph"
	"repro/internal/ts"
)

func TestByName(t *testing.T) {
	for _, n := range []string{"sphynx", "changa", "sphflow"} {
		c, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if c.Name == "" {
			t.Fatalf("ByName(%q) has no name", n)
		}
	}
	if _, err := ByName("gadget"); err == nil {
		t.Error("unknown code accepted")
	}
}

// TestTable1Fidelity pins the parent-code models to the paper's Table 1.
func TestTable1Fidelity(t *testing.T) {
	sx := SPHYNX()
	if sx.Gradients != sph.IAD || sx.Volumes != sph.GeneralizedVolume {
		t.Error("SPHYNX must use IAD + generalized volume elements")
	}
	if sx.Stepping != ts.Global {
		t.Error("SPHYNX must use global time steps")
	}
	if !strings.Contains(sx.GravityDesc, "4-pole") {
		t.Errorf("SPHYNX gravity = %q", sx.GravityDesc)
	}
	if !strings.HasPrefix(sx.KernelName, "sinc") {
		t.Errorf("SPHYNX kernel = %q", sx.KernelName)
	}

	ch := ChaNGa()
	if ch.Gradients != sph.KernelDerivatives || ch.Volumes != sph.StandardVolume {
		t.Error("ChaNGa must use kernel derivatives + standard volumes")
	}
	// The engine has no individual time-steps: ChaNGa runs global ones,
	// and its Table 1 cell is still the paper's.
	if ch.Stepping != ts.Global {
		t.Error("ChaNGa must run global time steps")
	}
	if !strings.Contains(Table1(), "Equal or Variable Individual") || ch.SteppingDesc != "Equal or Variable Individual" {
		t.Errorf("ChaNGa Table 1 time-stepping = %q, want the paper's Equal or Variable Individual", ch.SteppingDesc)
	}
	if !strings.Contains(ch.GravityDesc, "16-pole") {
		t.Errorf("ChaNGa gravity = %q", ch.GravityDesc)
	}
	if !ch.DynamicLB || ch.Decomp != domain.HilbertSFC {
		t.Error("ChaNGa must use SFC decomposition with dynamic LB")
	}

	sf := SPHflow()
	if sf.HasGravity {
		t.Error("SPH-flow has no self-gravity")
	}
	if sf.Stepping != ts.Adaptive {
		t.Error("SPH-flow must use adaptive stepping")
	}
	if sf.Decomp != domain.ORB {
		t.Error("SPH-flow must use ORB")
	}
	if !sf.MPIOnly {
		t.Error("SPH-flow is MPI-only (Table 3)")
	}
}

// TestGenerateConfigs: Configure applies a code's Table 1 numerics to a
// gravity-free workload and, for the astrophysical codes, to a
// self-gravitating one, and leaves the workload's physics alone.
func TestGenerateConfigs(t *testing.T) {
	for _, c := range []*Code{SPHYNX(), ChaNGa(), SPHflow()} {
		for _, grav := range []bool{false, c.HasGravity} {
			cfg := core.Config{Gravity: grav, Theta: 0.6, Eps: 0.02}
			if err := c.Configure(&cfg); err != nil {
				t.Fatalf("%s gravity=%v: %v", c.Name, grav, err)
			}
			if cfg.SPH.Kernel == nil || cfg.SPH.Kernel.Name() != c.KernelName {
				t.Errorf("%s: kernel %v, want %s", c.Name, cfg.SPH.Kernel, c.KernelName)
			}
			if cfg.SPH.Gradients != c.Gradients || cfg.SPH.Volumes != c.Volumes || cfg.Stepping != c.Stepping {
				t.Errorf("%s: gradients/volumes/stepping %v/%v/%v, want %v/%v/%v", c.Name,
					cfg.SPH.Gradients, cfg.SPH.Volumes, cfg.Stepping, c.Gradients, c.Volumes, c.Stepping)
			}
			want := gravity.Monopole // a workload without gravity keeps its zero order
			if grav {
				want = c.GravOrder
			}
			if cfg.GravOrder != want {
				t.Errorf("%s gravity=%v: multipole order %v, want %v", c.Name, grav, cfg.GravOrder, want)
			}
			if cfg.Gravity != grav || cfg.Theta != 0.6 || cfg.Eps != 0.02 {
				t.Errorf("%s: Configure edited the workload's physics: %+v", c.Name, cfg)
			}
		}
	}
}

func TestCostCalibrationShape(t *testing.T) {
	// ChaNGa's square-patch steps must be far costlier than its Evrard
	// steps (Fig. 2a vs 2b: ~740 s vs ~30 s at 12 cores).
	ch := ChaNGa()
	sq := ch.Cost(SquarePatch)
	ev := ch.Cost(Evrard)
	if sq.PairRate >= ev.PairRate {
		t.Error("ChaNGa square PairRate not slower than Evrard")
	}
	if sq.FixedPerStep <= ev.FixedPerStep {
		t.Error("ChaNGa square fixed cost not larger")
	}
	// SPHYNX 1.3.1's tree build is mostly serial (Fig. 4 phase A finding).
	sx := SPHYNX().Cost(Evrard)
	if sx.SerialFraction["A"] == 0 {
		t.Error("SPHYNX tree build serial fraction missing")
	}
	// SPH-flow's tree is parallel.
	sf := SPHflow().Cost(SquarePatch)
	if sf.SerialFraction["A"] >= sx.SerialFraction["A"] {
		t.Error("SPH-flow tree should be more parallel than SPHYNX 1.3.1")
	}
}

func TestRanksPerNode(t *testing.T) {
	daint := perfmodel.PizDaint()
	if SPHYNX().RanksPerNode(daint) != 1 {
		t.Error("SPHYNX should place 1 rank/node (MPI+OpenMP)")
	}
	if SPHflow().RanksPerNode(daint) != 12 {
		t.Error("SPH-flow should place 12 ranks/node on Piz Daint (MPI-only)")
	}
}

func TestTablesRender(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"SPHYNX", "ChaNGa", "SPH-flow", "Sinc", "IAD", "16-pole", "Tree Walk"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2()
	for _, want := range []string{"Wendland", "Generalized", "Adaptive", "Multipoles"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
	t3 := Table3()
	for _, want := range []string{"Space Filling Curve", "Orthogonal Recursive Bisection", "110000", "MPI+OpenMP"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, t3)
		}
	}
	t4 := Table4()
	for _, want := range []string{"Daly", "re-decomposition", "64-bit", "Silent"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
	t5 := Table5()
	for _, want := range []string{"Rotating Square Patch", "Evrard", "1e6", "20 steps", "Piz Daint"} {
		if !strings.Contains(t5, want) {
			t.Errorf("Table 5 missing %q", want)
		}
	}
}

package core

import (
	"math"
	"testing"

	"repro/internal/conserve"
	"repro/internal/eos"
	"repro/internal/gravity"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/sph"
	"repro/internal/ts"
	"repro/internal/vec"
)

func evrardSim(t *testing.T, n int) *Sim {
	t.Helper()
	ev := ic.DefaultEvrard(n)
	ev.NNeighbors = 50
	ps, pbc, box := ev.Generate(nil)
	cfg := Config{
		SPH: sph.Params{
			Kernel:     kernel.NewSinc(5),
			EOS:        eos.NewIdealGas(5.0 / 3.0),
			NNeighbors: 50,
			Gradients:  sph.IAD,
			Volumes:    sph.GeneralizedVolume,
			PBC:        pbc,
			Box:        box,
			Workers:    4,
		},
		Gravity:   true,
		GravOrder: gravity.Quadrupole,
		Theta:     0.6,
		Eps:       0.02,
		G:         1,
		Stepping:  ts.Global,
	}
	sim, err := New(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewRejectsBadICs(t *testing.T) {
	ps, pbc, box := ic.UniformCube(nil, 4, 40)
	ps.Mass[0] = -1
	cfg := Config{SPH: sph.Params{
		Kernel: kernel.NewM4(), EOS: eos.NewIdealGas(1.4),
		NNeighbors: 40, PBC: pbc, Box: box,
	}}
	if _, err := New(cfg, ps); err == nil {
		t.Fatal("negative mass accepted")
	}
}

func TestStaticCubeStaysStatic(t *testing.T) {
	// A uniform periodic box at rest must remain at rest: velocities stay
	// ~0 and energy is exactly conserved.
	ps, pbc, box := ic.UniformCube(nil, 8, 40)
	cfg := Config{
		SPH: sph.Params{
			Kernel: kernel.NewM4(), EOS: eos.NewIdealGas(5.0 / 3.0),
			NNeighbors: 40, PBC: pbc, Box: box, Workers: 4,
		},
		Stepping: ts.Global,
	}
	sim, err := New(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.Conservation()
	if _, err := sim.Run(5, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ps.NLocal; i++ {
		if v := ps.Vel[i].Norm(); v > 1e-8 {
			t.Fatalf("static cube developed velocity %g at particle %d", v, i)
		}
	}
	cur := sim.Conservation()
	// The relative-drift metric normalizes momentum by a kinetic scale,
	// which is ~0 for an exactly static system; use absolute bounds here.
	if cur.Momentum.Norm() > 1e-10 {
		t.Fatalf("static cube gained momentum %v", cur.Momentum)
	}
	if math.Abs(cur.Total()-ref.Total()) > 1e-10*math.Abs(ref.Total()) {
		t.Fatalf("static cube energy drifted %g -> %g", ref.Total(), cur.Total())
	}
}

func TestEvrardCollapseStarts(t *testing.T) {
	sim := evrardSim(t, 2000)
	// The potential diagnostic is filled by the first force evaluation.
	if _, err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	ref := sim.Conservation()
	if ref.Potential >= 0 {
		t.Fatalf("Evrard initial potential %g, want negative", ref.Potential)
	}
	infos, err := sim.Run(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 9 {
		t.Fatalf("ran %d steps", len(infos))
	}
	cur := sim.Conservation()
	// Gravitational collapse: kinetic energy grows from zero and motion is
	// inward (radial velocity negative on average).
	if cur.Kinetic <= 0 {
		t.Fatal("no kinetic energy after 10 steps of collapse")
	}
	var vr float64
	ps := sim.PS
	for i := 0; i < ps.NLocal; i++ {
		r := ps.Pos[i].Norm()
		if r > 0 {
			vr += ps.Vel[i].Dot(ps.Pos[i]) / r
		}
	}
	if vr >= 0 {
		t.Fatalf("mean radial velocity %g, want inward (negative)", vr/float64(ps.NLocal))
	}
}

func TestEvrardConservation(t *testing.T) {
	// The paper's validation criterion: under-resolved regimes must still
	// respect fundamental conservation laws. The initial potential for a
	// gravitating gas sphere dominates; total energy, momentum, and angular
	// momentum must drift only slowly.
	sim := evrardSim(t, 3000)
	// First step computes the potential diagnostics.
	if _, err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	ref := sim.Conservation()
	if _, err := sim.Run(14, 0); err != nil {
		t.Fatal(err)
	}
	drift := conserve.Compare(ref, sim.Conservation())
	t.Logf("drift %s", drift)
	// The energy bound sits just above the measured 0.42%, and momentum
	// and angular momentum (measured <= 3e-17) are bounded at 1e-13, so a
	// gravity change that alters which cells a particle sees, not only
	// the rounding of its sums, shows here.
	if drift.Mass != 0 {
		t.Errorf("mass drift %g, want exact", drift.Mass)
	}
	if drift.Momentum > 1e-13 {
		t.Errorf("momentum drift %g > 1e-13", drift.Momentum)
	}
	if drift.Energy > 0.005 {
		t.Errorf("energy drift %g > 0.5%% over 15 steps", drift.Energy)
	}
	if drift.AngMom > 1e-13 {
		t.Errorf("angular momentum drift %g > 1e-13", drift.AngMom)
	}
}

func TestSquarePatchRotates(t *testing.T) {
	sp := ic.DefaultSquarePatch(8000) // 20^3
	sp.NNeighbors = 40
	ps, pbc, box := sp.Generate(nil)
	cfg := Config{
		SPH: sph.Params{
			Kernel:     kernel.NewWendlandC2(),
			EOS:        eos.NewTait(sp.Rho0, sp.SoundSpeed, 7),
			NNeighbors: 40,
			PBC:        pbc,
			Box:        box,
			Workers:    4,
		},
		Stepping: ts.Adaptive,
	}
	sim, err := New(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.Conservation()
	infos, err := sim.Run(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.DT <= 0 || math.IsNaN(info.DT) {
			t.Fatalf("bad dt %g at step %d", info.DT, info.Step)
		}
	}
	cur := sim.Conservation()
	// Angular momentum of the rotating patch must be conserved.
	drift := conserve.Compare(ref, cur)
	if drift.AngMom > 0.01 {
		t.Errorf("patch angular momentum drift %g", drift.AngMom)
	}
	// The patch keeps rotating: kinetic energy stays within a factor of
	// the initial value over these few steps.
	if cur.Kinetic < 0.5*ref.Kinetic {
		t.Errorf("patch lost most kinetic energy: %g -> %g", ref.Kinetic, cur.Kinetic)
	}
	if err := ps.Validate(); err != nil {
		t.Fatalf("patch state corrupted: %v", err)
	}
}

func TestStepInfoAccounting(t *testing.T) {
	sim := evrardSim(t, 1000)
	info, err := sim.Step()
	if err != nil {
		t.Fatal(err)
	}
	if info.NeighborInteractions == 0 {
		t.Error("no neighbor interactions counted")
	}
	if info.GravNodeInteractions+info.GravPairInteractions == 0 {
		t.Error("no gravity work counted")
	}
	if info.MeanNeighbors < 25 || info.MeanNeighbors > 100 {
		t.Errorf("mean neighbors %g, target 50", info.MeanNeighbors)
	}
	for _, ph := range []PhaseID{PhaseTree, PhaseNeighbors, PhaseDensity, PhaseForces, PhaseGravity, PhaseUpdate} {
		if _, ok := info.PhaseSeconds[ph]; !ok {
			t.Errorf("phase %s not timed", ph)
		}
	}
	if info.MaxVSignal <= 0 {
		t.Error("no signal speed")
	}
	// Once the initial smoothing lengths have settled, a step walks the tree
	// about once per particle: further passes of the h iteration reuse the
	// hits of the first walk.
	for s := 0; s < 2; s++ {
		if info, err = sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if n := int64(sim.PS.NLocal); info.TreeWalks < n || info.TreeWalks > n+n/5 {
		t.Errorf("%d tree walks for %d particles, want between 1 and 1.2 per particle", info.TreeWalks, n)
	}
}

func TestRunHonorsMaxTime(t *testing.T) {
	sim := evrardSim(t, 800)
	infos, err := sim.Run(100, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// maxTime tiny: at most one step executes beyond it.
	if len(infos) > 1 {
		t.Fatalf("ran %d steps past maxTime", len(infos))
	}
}

func TestPBCWrapKeepsParticlesInBox(t *testing.T) {
	sp := ic.DefaultSquarePatch(1000)
	ps, pbc, box := sp.Generate(nil)
	cfg := Config{
		SPH: sph.Params{
			Kernel: kernel.NewWendlandC2(), EOS: eos.NewTait(1, sp.SoundSpeed, 7),
			NNeighbors: 40, PBC: pbc, Box: box, Workers: 2,
		},
		Stepping: ts.Global,
	}
	sim, err := New(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(5, 0); err != nil {
		t.Fatal(err)
	}
	lz := pbc.L.Z
	for i := 0; i < ps.NLocal; i++ {
		if ps.Pos[i].Z < box.Lo.Z || ps.Pos[i].Z >= box.Lo.Z+lz+1e-12 {
			t.Fatalf("particle %d escaped periodic Z: %g", i, ps.Pos[i].Z)
		}
	}
}

func TestEnergyCheckKDKSecondOrder(t *testing.T) {
	// The KDK integrator must keep energy drift tiny at both step sizes.
	// (A strict order-of-convergence check is confounded by the
	// h-adaptation and neighbor-truncation error floor, so we bound the
	// drift instead of comparing rates.)
	drift := func(maxDT float64) float64 {
		ps, pbc, box := ic.UniformCube(nil, 8, 40)
		for i := 0; i < ps.NLocal; i++ {
			// Smooth velocity field.
			ps.Vel[i] = vec.V3{
				X: 0.1 * math.Sin(2*math.Pi*ps.Pos[i].Y),
				Y: 0.1 * math.Sin(2*math.Pi*ps.Pos[i].Z),
				Z: 0.1 * math.Sin(2*math.Pi*ps.Pos[i].X),
			}
		}
		cfg := Config{
			SPH: sph.Params{
				Kernel: kernel.NewM4(), EOS: eos.NewIdealGas(5.0 / 3.0),
				NNeighbors: 40, PBC: pbc, Box: box, Workers: 4,
			},
			Stepping: ts.Global,
			MaxDT:    maxDT,
		}
		sim, err := New(cfg, ps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		ref := sim.Conservation()
		steps := int(math.Round(0.02 / maxDT))
		if _, err := sim.Run(steps, 0); err != nil {
			t.Fatal(err)
		}
		return conserve.Compare(ref, sim.Conservation()).Energy
	}
	d1 := drift(2e-3)
	d2 := drift(1e-3)
	if d1 > 1e-5 || d2 > 1e-5 {
		t.Errorf("energy drift too large: dt=2e-3 -> %g, dt=1e-3 -> %g", d1, d2)
	}
}

// BenchmarkEvrardStep8k steps the registered evrard scenario's
// configuration (internal/scenario: monopole gravity, theta 0.6, eps 0.02,
// 100 neighbours) at N = 8000, the evrard-serial workload's size.
func BenchmarkEvrardStep8k(b *testing.B) {
	ev := ic.DefaultEvrard(8000)
	ev.NNeighbors = 100
	ps, pbc, box := ev.Generate(nil)
	cfg := Config{
		SPH: sph.Params{
			Kernel: kernel.NewSinc(5), EOS: eos.NewIdealGas(5.0 / 3.0),
			NNeighbors: 100, Gradients: sph.IAD, Volumes: sph.GeneralizedVolume,
			PBC: pbc, Box: box,
		},
		Gravity: true, GravOrder: gravity.Monopole, Theta: 0.6, Eps: 0.02, G: 1,
		Stepping: ts.Global,
	}
	sim, err := New(cfg, ps)
	if err != nil {
		b.Fatal(err)
	}
	for range 2 { // the steps that grow the scratch
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

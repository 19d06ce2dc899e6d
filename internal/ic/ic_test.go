package ic

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func TestSquarePatchCounts(t *testing.T) {
	sp := DefaultSquarePatch(8000) // 20^3
	ps, pbc, box := sp.Generate(nil)
	if ps.NLocal != sp.NSide*sp.NSide*sp.NLayers {
		t.Fatalf("generated %d particles, want %d", ps.NLocal, sp.NSide*sp.NSide*sp.NLayers)
	}
	if !pbc.Z || pbc.X || pbc.Y {
		t.Fatalf("patch PBC = %+v, want Z only", pbc)
	}
	if box.Size <= 0 {
		t.Fatal("degenerate box")
	}
	if err := ps.Validate(); err != nil {
		t.Fatalf("invalid particle set: %v", err)
	}
}

func TestSquarePatchVelocityField(t *testing.T) {
	sp := DefaultSquarePatch(1000)
	ps, _, _ := sp.Generate(nil)
	for i := 0; i < ps.NLocal; i++ {
		x := ps.Pos[i].X - sp.L/2
		y := ps.Pos[i].Y - sp.L/2
		wantVx := sp.Omega * y
		wantVy := -sp.Omega * x
		if math.Abs(ps.Vel[i].X-wantVx) > 1e-12 || math.Abs(ps.Vel[i].Y-wantVy) > 1e-12 {
			t.Fatalf("particle %d velocity %v, want (%g,%g,0)", i, ps.Vel[i], wantVx, wantVy)
		}
		if ps.Vel[i].Z != 0 {
			t.Fatalf("nonzero vz")
		}
	}
}

func TestSquarePatchRigidRotationIsDivergenceFree(t *testing.T) {
	// Rigid rotation: velocity magnitude proportional to distance from axis.
	sp := DefaultSquarePatch(1000)
	ps, _, _ := sp.Generate(nil)
	for i := 0; i < ps.NLocal; i += 17 {
		x := ps.Pos[i].X - sp.L/2
		y := ps.Pos[i].Y - sp.L/2
		r := math.Hypot(x, y)
		v := ps.Vel[i].Norm()
		if math.Abs(v-sp.Omega*r) > 1e-12 {
			t.Fatalf("speed %g at radius %g, want %g", v, r, sp.Omega*r)
		}
	}
}

func TestSquarePatchPressureSymmetry(t *testing.T) {
	sp := DefaultSquarePatch(1000)
	// The series is symmetric under x <-> y.
	for _, xy := range [][2]float64{{0.2, 0.7}, {0.1, 0.35}, {0.44, 0.9}} {
		p1 := sp.Pressure(xy[0], xy[1])
		p2 := sp.Pressure(xy[1], xy[0])
		if math.Abs(p1-p2) > 1e-10*(math.Abs(p1)+1) {
			t.Fatalf("P(%g,%g)=%g != P(%g,%g)=%g", xy[0], xy[1], p1, xy[1], xy[0], p2)
		}
	}
	// Boundary pressure vanishes (sin terms).
	for _, x := range []float64{0, sp.L} {
		if p := sp.Pressure(x, 0.5); math.Abs(p) > 1e-9 {
			t.Fatalf("boundary pressure %g at x=%g", p, x)
		}
	}
}

func TestSquarePatchPressureNegativeSomewhere(t *testing.T) {
	// The test exists because negative pressure drives the tensile
	// instability (paper §5.1); the series must produce negative values.
	sp := DefaultSquarePatch(1000)
	found := false
	for x := 0.05; x < 1; x += 0.1 {
		for y := 0.05; y < 1; y += 0.1 {
			if sp.Pressure(x, y) < 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("pressure field nowhere negative")
	}
}

func TestEvrardMassAndProfile(t *testing.T) {
	ev := DefaultEvrard(5000)
	ps, pbc, _ := ev.Generate(nil)
	if !pbc.None() {
		t.Fatal("Evrard must not be periodic")
	}
	if math.Abs(ps.TotalMass()-ev.M) > 1e-9 {
		t.Fatalf("total mass %g, want %g", ps.TotalMass(), ev.M)
	}
	if err := ps.Validate(); err != nil {
		t.Fatalf("invalid particle set: %v", err)
	}
	// Count particles in radial shells; expect M(<r) ~ r^2.
	counts := make([]int, 4)
	edges := []float64{0.25, 0.5, 0.75, 1.0001}
	for i := 0; i < ps.NLocal; i++ {
		r := ps.Pos[i].Norm()
		for s, e := range edges {
			if r <= e {
				counts[s]++
				break
			}
		}
	}
	total := ps.NLocal
	cum := 0
	for s, e := range edges {
		cum += counts[s]
		wantFrac := e * e // M(<r)/M = (r/R)^2
		if e > 1 {
			wantFrac = 1
		}
		gotFrac := float64(cum) / float64(total)
		if math.Abs(gotFrac-wantFrac) > 0.05 {
			t.Errorf("cumulative mass to r=%.2f: %.3f, want %.3f", e, gotFrac, wantFrac)
		}
	}
}

func TestEvrardRandomSampler(t *testing.T) {
	ev := DefaultEvrard(3000)
	ev.RandomSeed = 12345
	ps, _, _ := ev.Generate(nil)
	if ps.NLocal != 3000 {
		t.Fatalf("random sampler made %d, want 3000", ps.NLocal)
	}
	// All inside the sphere.
	for i := 0; i < ps.NLocal; i++ {
		if ps.Pos[i].Norm() > ev.R+1e-12 {
			t.Fatalf("particle outside sphere at %v", ps.Pos[i])
		}
	}
	// Deterministic for equal seeds.
	ps2, _, _ := ev.Generate(nil)
	if ps.Pos[100] != ps2.Pos[100] {
		t.Fatal("random sampler not reproducible")
	}
}

func TestEvrardInternalEnergy(t *testing.T) {
	ev := DefaultEvrard(1000)
	ps, _, _ := ev.Generate(nil)
	for i := 0; i < ps.NLocal; i++ {
		if ps.U[i] != ev.U0 {
			t.Fatalf("u[%d] = %g, want %g", i, ps.U[i], ev.U0)
		}
		if ps.Vel[i] != (vec.V3{}) {
			t.Fatal("Evrard must start static")
		}
	}
}

func TestEvrardDensityClamp(t *testing.T) {
	ev := DefaultEvrard(100)
	if d := ev.Density(0); math.IsInf(d, 0) || math.IsNaN(d) {
		t.Fatalf("central density = %g", d)
	}
	if d := ev.Density(2 * ev.R); d != 0 {
		t.Fatalf("density outside sphere = %g", d)
	}
}

func TestUniformCube(t *testing.T) {
	ps, pbc, box := UniformCube(nil, 6, 50)
	if ps.NLocal != 216 {
		t.Fatalf("cube count %d", ps.NLocal)
	}
	if !pbc.X || !pbc.Y || !pbc.Z {
		t.Fatal("cube must be fully periodic")
	}
	if box.Size != 1 {
		t.Fatalf("box size %g", box.Size)
	}
	if math.Abs(ps.TotalMass()-1) > 1e-12 {
		t.Fatalf("total mass %g, want 1 (density 1 over unit cube)", ps.TotalMass())
	}
}

func TestSedovEnergyDeposit(t *testing.T) {
	const e = 1.0
	ps, _, _ := Sedov(nil, 8, 50, e)
	var total float64
	maxU, cornerU := 0.0, 0.0
	for i := 0; i < ps.NLocal; i++ {
		total += ps.Mass[i] * ps.U[i]
		if ps.U[i] > maxU {
			maxU = ps.U[i]
		}
	}
	cornerU = ps.U[0]
	if math.Abs(total-e-1e-8) > 1e-6 {
		t.Fatalf("deposited energy %g, want ~%g", total, e)
	}
	// Hot center, cold corner.
	if maxU <= 100*cornerU {
		t.Fatalf("blast not centrally concentrated: max %g corner %g", maxU, cornerU)
	}
}

func TestHFromDensity(t *testing.T) {
	// Uniform density 1000/unit^3, 100 neighbors: support sphere of radius
	// 2h must contain 100 particles.
	h := hFromDensity(1000, 100)
	vol := 4.0 / 3.0 * math.Pi * math.Pow(2*h, 3)
	if math.Abs(vol*1000-100) > 1e-9 {
		t.Fatalf("support holds %g particles, want 100", vol*1000)
	}
}

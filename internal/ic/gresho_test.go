package ic

import (
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/vec"
)

func TestGreshoStructure(t *testing.T) {
	gr := DefaultGresho(1000)
	ps, pbc, box := gr.Generate(nil)
	if ps.NLocal != gr.NSide*gr.NSide*gr.NSide {
		t.Fatalf("particle count %d, want %d", ps.NLocal, gr.NSide*gr.NSide*gr.NSide)
	}
	if !pbc.X || !pbc.Y || !pbc.Z {
		t.Error("gresho cube must be fully periodic")
	}
	if box.Size != 1 {
		t.Errorf("box size %g, want 1", box.Size)
	}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGreshoMatchesAnalyticProfile: the generated particles sample the
// analytic steady state exactly at t=0 — velocity, density, and (through
// u) pressure.
func TestGreshoMatchesAnalyticProfile(t *testing.T) {
	gr := DefaultGresho(1000)
	ps, _, _ := gr.Generate(nil)
	sol := &analytic.Gresho{Rho0: gr.Rho0, Center: vec.V3{X: 0.5, Y: 0.5}}
	var peak float64
	for i := 0; i < ps.NLocal; i++ {
		ref, ok := sol.Eval(ps.Pos[i], 0)
		if !ok {
			t.Fatalf("analytic profile invalid at %v", ps.Pos[i])
		}
		if dv := ps.Vel[i].Sub(ref.Vel).Norm(); dv > 1e-12 {
			t.Fatalf("particle %d velocity %v, analytic %v", i, ps.Vel[i], ref.Vel)
		}
		if ps.Rho[i] != ref.Rho {
			t.Fatalf("particle %d density %g, analytic %g", i, ps.Rho[i], ref.Rho)
		}
		p := (gr.Gamma - 1) * ps.Rho[i] * ps.U[i]
		if math.Abs(p-ref.P) > 1e-12 {
			t.Fatalf("particle %d pressure %g, analytic %g", i, p, ref.P)
		}
		peak = math.Max(peak, ps.Vel[i].Norm())
	}
	// The discrete lattice should come close to the profile peak of 1.
	if peak < 0.9 || peak > 1.0+1e-12 {
		t.Errorf("peak lattice speed %g, want ~1", peak)
	}
	// Total momentum and angular momentum about the axis are zero by
	// symmetry.
	var mom vec.V3
	for i := 0; i < ps.NLocal; i++ {
		mom = mom.MulAdd(ps.Mass[i], ps.Vel[i])
	}
	if mom.Norm() > 1e-10 {
		t.Errorf("net momentum %v, want ~0", mom)
	}
}

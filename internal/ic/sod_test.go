package ic

import (
	"math"
	"testing"
)

func TestSodStructure(t *testing.T) {
	sd := DefaultSod(8000)
	ps, pbc, box := sd.Generate(nil)
	if ps.NLocal == 0 {
		t.Fatal("no particles")
	}
	if err := ps.Validate(); err != nil {
		t.Fatalf("invalid particle set: %v", err)
	}
	if pbc.X || !pbc.Y || !pbc.Z {
		t.Fatalf("sod PBC = %+v, want y/z only", pbc)
	}
	if pbc.L.Y <= 0 || pbc.L.Y != pbc.L.Z || pbc.L.Y > 1 {
		t.Fatalf("periodic extents %+v", pbc.L)
	}
	if box.Size != 1 {
		t.Fatalf("box size %g, want 1 (covers the tube axis)", box.Size)
	}
}

// TestSodStates: both half-states carry exactly the configured density
// (via per-particle masses on the uniform lattice) and are in mutual
// pressure disequilibrium with the configured ratio.
func TestSodStates(t *testing.T) {
	sd := DefaultSod(4000)
	ps, _, _ := sd.Generate(nil)

	dx := 1.0 / float64(sd.NX)
	cellVol := dx * dx * dx
	var nL, nR int
	for i := 0; i < ps.NLocal; i++ {
		if ps.Vel[i].Norm() != 0 {
			t.Fatalf("particle %d not at rest: %v", i, ps.Vel[i])
		}
		left := ps.Pos[i].X < 0.5
		wantRho, wantP := sd.RhoL, sd.PL
		if !left {
			wantRho, wantP = sd.RhoR, sd.PR
		}
		if math.Abs(ps.Rho[i]-wantRho) > 1e-12 {
			t.Fatalf("particle %d rho=%g, want %g", i, ps.Rho[i], wantRho)
		}
		if math.Abs(ps.Mass[i]-wantRho*cellVol) > 1e-15 {
			t.Fatalf("particle %d mass=%g, want %g", i, ps.Mass[i], wantRho*cellVol)
		}
		// u = P / ((gamma-1) rho): the lattice encodes the pressure jump.
		wantU := wantP / ((sd.Gamma - 1) * wantRho)
		if math.Abs(ps.U[i]-wantU) > 1e-12 {
			t.Fatalf("particle %d u=%g, want %g", i, ps.U[i], wantU)
		}
		if left {
			nL++
		} else {
			nR++
		}
	}
	if nL != nR {
		t.Fatalf("asymmetric split: %d left vs %d right", nL, nR)
	}

	// Total mass is the exact two-state integral over the tube volume.
	w := float64(sd.NX/4) * dx
	want := (sd.RhoL + sd.RhoR) / 2 * w * w
	if got := ps.TotalMass(); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("total mass %g, want %g", got, want)
	}
}

func TestSodCustomStates(t *testing.T) {
	sd := DefaultSod(2000)
	sd.RhoR, sd.PR = 0.25, 0.3 // a ratio the equal-mass trick cannot tile
	ps, _, _ := sd.Generate(nil)
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ps.NLocal; i++ {
		if ps.Pos[i].X >= 0.5 && math.Abs(ps.Rho[i]-0.25) > 1e-12 {
			t.Fatalf("custom right state density %g", ps.Rho[i])
		}
	}
}

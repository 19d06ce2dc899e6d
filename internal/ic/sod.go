package ic

import (
	"math"

	"repro/internal/part"
	"repro/internal/sfc"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Sod holds the Sod shock tube configuration (Sod 1978): the classic 1D
// Riemann problem — a high-pressure dense left state against a low-pressure
// light right state, initially at rest. The discontinuity decays into a
// rightward shock, a contact discontinuity, and a leftward rarefaction, all
// with exact analytic profiles, making it the standard validation workload
// for a compressible hydro scheme's shock capturing.
type Sod struct {
	// NX is the lattice count along the tube axis x in [0, 1]; the
	// cross-section uses NX/4 cells per axis (minimum 4).
	NX int
	// RhoL, PL are the left state (x < 0.5); RhoR, PR the right state.
	// The classic values are 1, 1 | 0.125, 0.1.
	RhoL, PL, RhoR, PR float64
	// Gamma is the adiabatic index (1.4 classically).
	Gamma float64
	// NNeighbors sets initial smoothing lengths.
	NNeighbors int
}

// DefaultSod returns the classic configuration scaled to about n particles.
func DefaultSod(n int) Sod {
	// n = nx * (nx/4)^2 = nx^3/16, so nx = (16 n)^(1/3).
	nx := int(math.Round(math.Cbrt(16 * float64(n))))
	if nx < 8 {
		nx = 8
	}
	return Sod{
		NX:   nx,
		RhoL: 1, PL: 1, RhoR: 0.125, PR: 0.1,
		Gamma: 1.4, NNeighbors: 100,
	}
}

// Generate builds the particle set: a uniform lattice over the tube
// [0,1] x [0,W)^2 with the density contrast carried by per-particle masses
// (the same noise-free-interface idiom as the Kelvin-Helmholtz setup, and
// exact for any RhoL/RhoR ratio). The cross-section is periodic in y and z
// so the flow stays one-dimensional; x ends are free — the tube is run for
// times short enough that end effects cannot reach the wave structure.
func (sd Sod) Generate(into *part.Set) (*part.Set, tree.PBC, sfc.Box) {
	nx := sd.NX
	ny := nx / 4
	if ny < 4 {
		ny = 4
	}
	nz := ny
	dx := 1.0 / float64(nx)
	w := float64(ny) * dx
	cellVol := dx * dx * dx

	n := nx * ny * nz
	ps := into.Reset(n)
	i := 0
	for iz := 0; iz < nz; iz++ {
		z := (float64(iz) + 0.5) * dx
		for iy := 0; iy < ny; iy++ {
			y := (float64(iy) + 0.5) * dx
			for ix := 0; ix < nx; ix++ {
				x := (float64(ix) + 0.5) * dx
				rho, p := sd.RhoL, sd.PL
				if x >= 0.5 {
					rho, p = sd.RhoR, sd.PR
				}
				ps.ID[i] = int64(i)
				ps.Pos[i] = vec.V3{X: x, Y: y, Z: z}
				ps.Mass[i] = rho * cellVol
				ps.Rho[i] = rho
				ps.U[i] = p / ((sd.Gamma - 1) * rho)
				ps.H[i] = hFromDensity(1/cellVol, sd.NNeighbors)
				i++
			}
		}
	}
	pbc := tree.PBC{Y: true, Z: true, L: vec.V3{Y: w, Z: w}}
	// The quantization cube must cover the x extent (1) and the periodic
	// y/z extents (w <= 1).
	box := sfc.Box{Lo: vec.V3{}, Size: 1}
	return ps, pbc, box
}

package ic

import (
	"math"

	"repro/internal/analytic"
	"repro/internal/part"
	"repro/internal/sfc"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Gresho holds the Gresho-Chan vortex configuration (Gresho & Chan 1990):
// a triangular azimuthal velocity profile in exact centrifugal-pressure
// balance, so the flow is a steady state and any evolution is numerical
// error — the standard test of angular-momentum conservation and numerical
// viscosity. The vortex axis is z; the cube is fully periodic (the profile
// is quiescent beyond r = 0.4, well inside the unit cell).
type Gresho struct {
	// NSide is the per-axis lattice count of the unit cube.
	NSide int
	// Rho0 is the uniform density; the balancing pressure scales with it.
	Rho0 float64
	// Gamma converts the pressure profile to specific internal energy.
	Gamma float64
	// NNeighbors sets initial smoothing lengths.
	NNeighbors int
}

// DefaultGresho returns the standard configuration scaled to about n
// particles.
func DefaultGresho(n int) Gresho {
	side := int(math.Round(math.Cbrt(float64(n))))
	if side < 2 {
		side = 2
	}
	return Gresho{NSide: side, Rho0: 1, Gamma: 5.0 / 3.0, NNeighbors: 100}
}

// Generate builds the particle set on an equal-spacing lattice over the
// fully periodic unit cube, with the piecewise-analytic azimuthal velocity
// and its balancing pressure (via analytic.GreshoVPhi/GreshoPressure)
// imprinted about the axis through (0.5, 0.5).
func (gr Gresho) Generate(into *part.Set) (*part.Set, tree.PBC, sfc.Box) {
	nside := gr.NSide
	n := nside * nside * nside
	ps := into.Reset(n)
	dx := 1.0 / float64(nside)
	cellVol := dx * dx * dx
	i := 0
	for iz := 0; iz < nside; iz++ {
		z := (float64(iz) + 0.5) * dx
		for iy := 0; iy < nside; iy++ {
			y := (float64(iy) + 0.5) * dx
			for ix := 0; ix < nside; ix++ {
				x := (float64(ix) + 0.5) * dx
				cx, cy := x-0.5, y-0.5
				r := math.Hypot(cx, cy)
				ps.ID[i] = int64(i)
				ps.Pos[i] = vec.V3{X: x, Y: y, Z: z}
				if r > 0 {
					v := analytic.GreshoVPhi(r)
					ps.Vel[i] = vec.V3{X: -cy / r * v, Y: cx / r * v}
				}
				ps.Mass[i] = gr.Rho0 * cellVol
				ps.Rho[i] = gr.Rho0
				// p scales with rho0, so u = p/((gamma-1) rho) does not.
				ps.U[i] = analytic.GreshoPressure(r) / (gr.Gamma - 1)
				ps.H[i] = hFromDensity(1/cellVol, gr.NNeighbors)
				i++
			}
		}
	}
	pbc := tree.PBC{X: true, Y: true, Z: true, L: vec.V3{X: 1, Y: 1, Z: 1}}
	return ps, pbc, sfc.Box{Lo: vec.V3{}, Size: 1}
}

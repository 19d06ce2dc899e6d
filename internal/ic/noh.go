package ic

import (
	"math"

	"repro/internal/part"
	"repro/internal/sfc"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Noh holds the Noh spherical-implosion configuration (Noh 1987): a cold
// uniform gas with every particle moving radially inward at unit speed. An
// outward-travelling accretion shock with an analytic post-shock density
// (gamma+1)^2/(gamma-1)^2 * rho0 forms at the origin, making the problem a
// standard stress test for artificial-viscosity treatments beyond the
// paper's two acceptance cases.
type Noh struct {
	// NSide is the per-axis lattice count; the cube holds NSide^3 particles.
	NSide int
	// Rho0 is the uniform initial density.
	Rho0 float64
	// VIn is the inward radial speed (1 in the classic setup).
	VIn float64
	// U0 is the (tiny) initial specific internal energy; the classic setup
	// is a pressureless cold gas, which SPH approximates with u ~ 0.
	U0 float64
	// NNeighbors sets initial smoothing lengths.
	NNeighbors int
}

// DefaultNoh returns the classic configuration scaled to about n particles.
func DefaultNoh(n int) Noh {
	side := int(math.Round(math.Cbrt(float64(n))))
	if side < 2 {
		side = 2
	}
	return Noh{NSide: side, Rho0: 1, VIn: 1, U0: 1e-6, NNeighbors: 100}
}

// Generate builds the particle set: a uniform lattice filling the cube
// [-0.5, 0.5]^3 with velocity -VIn * r_hat toward the origin. The boundary
// is free (no PBC): the implosion runs until the rarefaction from the cube
// faces reaches the region of interest.
func (nh Noh) Generate(into *part.Set) (*part.Set, tree.PBC, sfc.Box) {
	nside := nh.NSide
	n := nside * nside * nside
	ps := into.Reset(n)
	dx := 1.0 / float64(nside)
	cellVol := dx * dx * dx
	nd := 1 / cellVol
	i := 0
	for iz := 0; iz < nside; iz++ {
		for iy := 0; iy < nside; iy++ {
			for ix := 0; ix < nside; ix++ {
				p := vec.V3{
					X: (float64(ix)+0.5)*dx - 0.5,
					Y: (float64(iy)+0.5)*dx - 0.5,
					Z: (float64(iz)+0.5)*dx - 0.5,
				}
				ps.ID[i] = int64(i)
				ps.Pos[i] = p
				r := p.Norm()
				if r > 0 {
					ps.Vel[i] = p.Scale(-nh.VIn / r)
				}
				ps.Mass[i] = nh.Rho0 * cellVol
				ps.Rho[i] = nh.Rho0
				ps.U[i] = nh.U0
				ps.H[i] = hFromDensity(nd, nh.NNeighbors)
				i++
			}
		}
	}
	lo, hi := ps.Bounds()
	return ps, tree.PBC{}, sfc.NewBox(lo, hi)
}

// KelvinHelmholtz holds a shear-layer configuration (e.g. Price 2008): a
// dense slab moving against a lighter ambient medium in pressure
// equilibrium, with a small sinusoidal transverse velocity perturbation
// seeding the instability. Fully periodic, so it exercises the PBC paths of
// the tree and halo exchange in a way neither acceptance case does.
type KelvinHelmholtz struct {
	// NSide is the per-axis lattice count of the unit cube.
	NSide int
	// RhoIn is the slab density (|y - 0.5| < 0.25); RhoOut the ambient.
	RhoIn, RhoOut float64
	// VShear is the half shear speed: the slab moves at +VShear in x, the
	// ambient at -VShear.
	VShear float64
	// P0 is the uniform pressure of the equilibrium.
	P0 float64
	// Gamma is the adiabatic index used to convert P0 to internal energy.
	Gamma float64
	// VSeed and SeedModes set the amplitude and x-wavenumber of the
	// transverse velocity perturbation.
	VSeed     float64
	SeedModes int
	// NNeighbors sets initial smoothing lengths.
	NNeighbors int
}

// DefaultKelvinHelmholtz returns the customary 2:1 density-contrast
// configuration scaled to about n particles.
func DefaultKelvinHelmholtz(n int) KelvinHelmholtz {
	side := int(math.Round(math.Cbrt(float64(n))))
	if side < 2 {
		side = 2
	}
	return KelvinHelmholtz{
		NSide: side, RhoIn: 2, RhoOut: 1, VShear: 0.5,
		P0: 2.5, Gamma: 5.0 / 3.0, VSeed: 0.025, SeedModes: 2,
		NNeighbors: 100,
	}
}

// Generate builds the particle set on an equal-spacing lattice over the
// fully periodic unit cube; the density contrast is carried by per-particle
// masses so the slab interface stays noise-free at t=0.
func (kh KelvinHelmholtz) Generate(into *part.Set) (*part.Set, tree.PBC, sfc.Box) {
	nside := kh.NSide
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
				rho := kh.RhoOut
				vx := -kh.VShear
				if math.Abs(y-0.5) < 0.25 {
					rho = kh.RhoIn
					vx = kh.VShear
				}
				ps.ID[i] = int64(i)
				ps.Pos[i] = vec.V3{X: x, Y: y, Z: z}
				vy := kh.VSeed * math.Sin(2*math.Pi*float64(kh.SeedModes)*x) *
					(math.Exp(-squared((y-0.25)/0.05)) + math.Exp(-squared((y-0.75)/0.05)))
				ps.Vel[i] = vec.V3{X: vx, Y: vy}
				ps.Mass[i] = rho * cellVol
				ps.Rho[i] = rho
				ps.U[i] = kh.P0 / ((kh.Gamma - 1) * rho)
				ps.H[i] = hFromDensity(1/cellVol, kh.NNeighbors)
				i++
			}
		}
	}
	pbc := tree.PBC{X: true, Y: true, Z: true, L: vec.V3{X: 1, Y: 1, Z: 1}}
	return ps, pbc, sfc.Box{Lo: vec.V3{}, Size: 1}
}

func squared(x float64) float64 { return x * x }

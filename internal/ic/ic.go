// Package ic generates the initial conditions behind the registered
// scenarios, eight generators in all: the paper's two acceptance tests
// (Table 5) — the rotating square patch (Colagrossi 2005) and the Evrard
// collapse (Evrard 1988) — a uniform cube, and the workloads with an
// analytic reference or a known instability: the Sedov-Taylor blast, the Sod
// shock tube (sod.go), the Noh implosion and the Kelvin-Helmholtz shear layer
// (noh.go), and the Gresho-Chan vortex (gresho.go). Each fills and returns
// the set it is given (part.Set.Reset; nil: a new one).
package ic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/part"
	"repro/internal/sfc"
	"repro/internal/tree"
	"repro/internal/vec"
)

// hFromDensity returns the smoothing length that encloses approximately
// nNeighbors particles of number density nd inside the kernel support 2h.
func hFromDensity(nd float64, nNeighbors int) float64 {
	// (4/3) pi (2h)^3 nd = N  =>  h = 0.5 * (3N / (4 pi nd))^(1/3)
	return 0.5 * math.Cbrt(3*float64(nNeighbors)/(4*math.Pi*nd))
}

// SquarePatch holds the rotating-square-patch configuration of paper §5.1.
type SquarePatch struct {
	// NSide is the per-side 2D particle count; the paper uses 100.
	NSide int
	// NLayers is the number of Z copies; the paper uses 100 (so the full
	// test is 100x100x100 = 1e6 particles).
	NLayers int
	// L is the square side length.
	L float64
	// Omega is the angular velocity (5 rad/s in the paper).
	Omega float64
	// Rho0 is the reference density.
	Rho0 float64
	// NNeighbors sets initial smoothing lengths.
	NNeighbors int
	// PressureTerms truncates the double Poisson series (odd terms).
	PressureTerms int
	// SoundSpeed is the weakly-compressible artificial sound speed used to
	// imprint the pressure field through the Tait EOS; customarily
	// ~10 * omega * L.
	SoundSpeed float64
}

// DefaultSquarePatch returns the paper's configuration scaled to about n
// particles (n^(1/3) per side).
func DefaultSquarePatch(n int) SquarePatch {
	side := int(math.Round(math.Cbrt(float64(n))))
	if side < 2 {
		side = 2
	}
	return SquarePatch{
		NSide:         side,
		NLayers:       side,
		L:             1,
		Omega:         5,
		Rho0:          1,
		NNeighbors:    100,
		PressureTerms: 16,
		SoundSpeed:    50, // 10 * omega * L
	}
}

// Pressure evaluates the incompressible-Poisson series pressure of the
// rotating patch at (x, y) in [0, L]^2 (paper §5.1; only odd (m, n) terms
// contribute).
func (sp SquarePatch) Pressure(x, y float64) float64 {
	var p float64
	L := sp.L
	for m := 1; m <= 2*sp.PressureTerms-1; m += 2 {
		mf := float64(m)
		km := mf * math.Pi / L
		sx := math.Sin(km * x)
		for n := 1; n <= 2*sp.PressureTerms-1; n += 2 {
			nf := float64(n)
			kn := nf * math.Pi / L
			coeff := -32 * sp.Omega * sp.Omega / (mf * nf * math.Pi * math.Pi)
			coeff /= km*km + kn*kn
			p += coeff * sx * math.Sin(kn*y)
		}
	}
	return sp.Rho0 * p
}

// Generate builds the particle set, the periodic boundary (Z only), and the
// quantization box. Positions span [0,L]x[0,L]x[0,Lz); velocities rotate
// rigidly about the patch center; the pressure field is imprinted through a
// Tait density perturbation so SPH sees the paper's initial state.
func (sp SquarePatch) Generate(into *part.Set) (*part.Set, tree.PBC, sfc.Box) {
	nx, ny, nz := sp.NSide, sp.NSide, sp.NLayers
	dx := sp.L / float64(nx)
	lz := dx * float64(nz)
	n := nx * ny * nz
	ps := into.Reset(n)

	gamma := 7.0
	b := sp.Rho0 * sp.SoundSpeed * sp.SoundSpeed / gamma
	cellVol := dx * dx * dx
	nd := 1 / cellVol

	i := 0
	for iz := 0; iz < nz; iz++ {
		z := (float64(iz) + 0.5) * dx
		for iy := 0; iy < ny; iy++ {
			y := (float64(iy) + 0.5) * dx
			for ix := 0; ix < nx; ix++ {
				x := (float64(ix) + 0.5) * dx
				ps.ID[i] = int64(i)
				ps.Pos[i] = vec.V3{X: x, Y: y, Z: z}
				// Rigid rotation about the patch center.
				xc := x - sp.L/2
				yc := y - sp.L/2
				ps.Vel[i] = vec.V3{X: sp.Omega * yc, Y: -sp.Omega * xc}
				p0 := sp.Pressure(x, y)
				// Invert Tait: rho = rho0 (1 + P/B)^(1/gamma).
				ratio := 1 + p0/b
				if ratio < 0.1 {
					ratio = 0.1 // guard: extreme negative pressure corner
				}
				rho := sp.Rho0 * math.Pow(ratio, 1/gamma)
				ps.Rho[i] = rho
				ps.Mass[i] = rho * cellVol
				ps.H[i] = hFromDensity(nd, sp.NNeighbors)
				ps.U[i] = 0
				i++
			}
		}
	}
	pbc := tree.PBC{Z: true, L: vec.V3{Z: lz}}
	// The periodic quantization cube must cover the Z period; X/Y use the
	// patch extent (free surface).
	size := math.Max(sp.L, lz)
	box := sfc.Box{Lo: vec.V3{}, Size: size}
	return ps, pbc, box
}

// Evrard holds the Evrard-collapse configuration of paper §5.1: an initially
// static isothermal gas sphere with rho ~ 1/r that collapses under
// self-gravity.
type Evrard struct {
	// N is the requested particle count (the realized count differs
	// slightly for the stretched-lattice sampler).
	N int
	// R and M are the initial radius and mass (both 1 in the paper).
	R, M float64
	// U0 is the initial specific internal energy (0.05 in the paper).
	U0 float64
	// NNeighbors sets initial smoothing lengths.
	NNeighbors int
	// RandomSeed < 0 selects the deterministic stretched-lattice sampler;
	// otherwise positions are drawn randomly from the 1/r profile with this
	// seed.
	RandomSeed int64
}

// DefaultEvrard returns the paper's configuration for about n particles.
func DefaultEvrard(n int) Evrard {
	return Evrard{N: n, R: 1, M: 1, U0: 0.05, NNeighbors: 100, RandomSeed: -1}
}

// Density returns the target density profile M/(2 pi R^2 r), clamped at the
// innermost resolved radius.
func (ev Evrard) Density(r float64) float64 {
	if r > ev.R {
		return 0
	}
	rMin := ev.R * 1e-3
	if r < rMin {
		r = rMin
	}
	return ev.M / (2 * math.Pi * ev.R * ev.R * r)
}

// Generate builds the particle set. Equal-mass particles are placed either
// on a radially-stretched lattice (deterministic; maps a uniform lattice
// r -> R (r/R)^(3/2), turning uniform density into the 1/r profile) or by
// random sampling of the cumulative mass M(<r) = M r^2/R^2.
func (ev Evrard) Generate(into *part.Set) (*part.Set, tree.PBC, sfc.Box) {
	var pos []vec.V3
	if ev.RandomSeed >= 0 {
		rng := rand.New(rand.NewSource(ev.RandomSeed))
		pos = make([]vec.V3, ev.N)
		for i := range pos {
			r := ev.R * math.Sqrt(rng.Float64())
			cosTh := 2*rng.Float64() - 1
			sinTh := math.Sqrt(1 - cosTh*cosTh)
			phi := 2 * math.Pi * rng.Float64()
			pos[i] = vec.V3{
				X: r * sinTh * math.Cos(phi),
				Y: r * sinTh * math.Sin(phi),
				Z: r * cosTh,
			}
		}
	} else {
		// Stretched lattice: lattice spacing chosen so the unit sphere holds
		// about N points.
		spacing := math.Cbrt(4 * math.Pi / 3 / float64(ev.N))
		half := int(math.Ceil(1/spacing)) + 1
		for ix := -half; ix <= half; ix++ {
			for iy := -half; iy <= half; iy++ {
				for iz := -half; iz <= half; iz++ {
					p := vec.V3{
						X: (float64(ix) + 0.5) * spacing,
						Y: (float64(iy) + 0.5) * spacing,
						Z: (float64(iz) + 0.5) * spacing,
					}
					r := p.Norm()
					if r > 1 || r == 0 {
						continue
					}
					// Radial stretch r -> r^(3/2) (unit sphere units).
					stretched := p.Scale(math.Pow(r, 1.5) / r * ev.R)
					pos = append(pos, stretched)
				}
			}
		}
	}

	n := len(pos)
	if n == 0 {
		panic(fmt.Sprintf("ic: Evrard sampler produced no particles for N=%d", ev.N))
	}
	ps := into.Reset(n)
	m := ev.M / float64(n)
	for i := range pos {
		ps.ID[i] = int64(i)
		ps.Pos[i] = pos[i]
		ps.Mass[i] = m
		ps.U[i] = ev.U0
		r := pos[i].Norm()
		rho := ev.Density(r)
		ps.Rho[i] = rho
		ps.H[i] = hFromDensity(rho/m, ev.NNeighbors)
	}
	lo, hi := ps.Bounds()
	return ps, tree.PBC{}, sfc.NewBox(lo, hi)
}

// UniformCube fills [0,1)^3 with an n^3 lattice of unit-density equal-mass
// particles — the simplest fixture for SPH unit tests.
func UniformCube(into *part.Set, nside, nNeighbors int) (*part.Set, tree.PBC, sfc.Box) {
	n := nside * nside * nside
	ps := into.Reset(n)
	dx := 1.0 / float64(nside)
	cellVol := dx * dx * dx
	i := 0
	for iz := 0; iz < nside; iz++ {
		for iy := 0; iy < nside; iy++ {
			for ix := 0; ix < nside; ix++ {
				ps.ID[i] = int64(i)
				ps.Pos[i] = vec.V3{
					X: (float64(ix) + 0.5) * dx,
					Y: (float64(iy) + 0.5) * dx,
					Z: (float64(iz) + 0.5) * dx,
				}
				ps.Mass[i] = cellVol // density 1
				ps.Rho[i] = 1
				ps.U[i] = 1
				ps.H[i] = hFromDensity(1/cellVol, nNeighbors)
				i++
			}
		}
	}
	pbc := tree.PBC{X: true, Y: true, Z: true, L: vec.V3{X: 1, Y: 1, Z: 1}}
	return ps, pbc, sfc.Box{Lo: vec.V3{}, Size: 1}
}

// Sedov initializes the Sedov-Taylor point blast: a uniform cube with the
// explosion energy E deposited as internal energy in a kernel-smoothed
// region around the center. An extension test beyond the paper's two cases.
func Sedov(into *part.Set, nside, nNeighbors int, e float64) (*part.Set, tree.PBC, sfc.Box) {
	ps, pbc, box := UniformCube(into, nside, nNeighbors)
	for i := 0; i < ps.NLocal; i++ {
		ps.U[i] = 1e-8
	}
	center := vec.V3{X: 0.5, Y: 0.5, Z: 0.5}
	k := kernel.NewM4()
	h := 2 * ps.H[0]
	// Deposit E with kernel weights over the central region.
	var wsum float64
	weights := make([]float64, ps.NLocal)
	for i := 0; i < ps.NLocal; i++ {
		w := k.W(ps.Pos[i].Sub(center).Norm(), h)
		weights[i] = w
		wsum += w * ps.Mass[i]
	}
	if wsum > 0 {
		for i := 0; i < ps.NLocal; i++ {
			if weights[i] > 0 {
				ps.U[i] += e * weights[i] / wsum
			}
		}
	}
	return ps, pbc, box
}

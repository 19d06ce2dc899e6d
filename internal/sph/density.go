package sph

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/vec"
)

// Density computes per-particle density from the neighbor list (part of step
// 3 of Algorithm 1), honoring the configured volume-element mode, and then
// fills the volume elements ps.VE.
//
// StandardVolume:    rho_i = sum_j m_j W_ij(h_i) (self term included),
//
//	V_i = m_i / rho_i.
//
// GeneralizedVolume: X = m/rho_prev (the previous density estimate; a
// standard summation bootstraps it when rho is zero), then
//
//	kappa_i = sum_j X_j W_ij(h_i) (self included),
//	V_i = X_i / kappa_i, rho_i = m_i / V_i.
func Density(ps *part.Set, nl *NeighborList, p *Params) {
	new(Workspace).Density(ps, nl, p)
}

// Density is Density with X in the workspace.
func (ws *Workspace) Density(ps *part.Set, nl *NeighborList, p *Params) {
	needBootstrap := p.Volumes == GeneralizedVolume &&
		slices.ContainsFunc(ps.Rho[:ps.Len()], func(rho float64) bool { return rho <= 0 })
	if p.Volumes == StandardVolume || needBootstrap {
		kernelSums(ps, nl, p, ps.Mass, false)
		if p.Volumes == StandardVolume {
			return
		}
	}

	// Generalized volume elements: X from the current density estimate.
	ws.x = slices.Grow(ws.x[:0], ps.Len())[:ps.Len()]
	x := ws.x
	for i := range x {
		if ps.Rho[i] > 0 {
			x[i] = ps.Mass[i] / ps.Rho[i]
		} else {
			x[i] = ps.Mass[i] // ghost without density: mass-proportional
		}
	}
	kernelSums(ps, nl, p, x, true)
}

// kernelSums takes s_i = sum_j a_j W_ij(h_i) over each owned particle's
// neighbors, self term included, and sets rho_i = s_i, V_i = m_i/rho_i, or
// for generalized volumes V_i = a_i/s_i, rho_i = m_i/V_i.
func kernelSums(ps *part.Set, nl *NeighborList, p *Params, a []float64, generalized bool) {
	n := ps.Len()
	prof, mi := kernel.ProfileOf(p.Kernel), newMinImage(p.PBC)
	pos, h, mass, rho, ve, a := ps.Pos[:n], ps.H[:n], ps.Mass[:n], ps.Rho[:n], ps.VE[:n], a[:n]
	par.Range(ps.NLocal, p.workers(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hi1, pi := h[i], pos[i]
			norm := prof.Norm(hi1)
			sum := a[i] * (norm * prof.W(0))
			for _, j := range nl.Of(i) {
				pj := pos[j]
				dx, dy, dz := mi.x.image(pi.X-pj.X), mi.y.image(pi.Y-pj.Y), mi.z.image(pi.Z-pj.Z) // r_i - r_j
				sum += a[j] * (norm * prof.W(math.Sqrt(dx*dx+dy*dy+dz*dz)/hi1))
			}
			if generalized {
				v := a[i] / sum
				ve[i], rho[i] = v, mass[i]/v
			} else {
				rho[i], ve[i] = sum, mass[i]/sum
			}
		}
	})
}

// EquationOfState fills pressure and sound speed from density and internal
// energy for all particles (owned and ghosts).
func EquationOfState(ps *part.Set, p *Params) {
	for i := 0; i < ps.Len(); i++ {
		ps.P[i] = p.EOS.Pressure(ps.Rho[i], ps.U[i])
		ps.C[i] = p.EOS.SoundSpeed(ps.Rho[i], ps.U[i])
	}
}

// ComputeIAD fills ps.Tau with the inverse IAD moment matrices
// C_i = tau_i^{-1}, tau_i = sum_j V_j (r_j - r_i)(r_j - r_i)^T W_ij(h_i)
// (García-Senz et al. 2012). Particles whose tau is numerically singular
// (degenerate neighbor geometry) get a zero matrix; the force loop falls
// back to kernel derivatives for them. Returns the number of fallbacks.
func ComputeIAD(ps *part.Set, nl *NeighborList, p *Params) int {
	n := ps.Len()
	prof, mi := kernel.ProfileOf(p.Kernel), newMinImage(p.PBC)
	pos, h, ve, tau := ps.Pos[:n], ps.H[:n], ps.VE[:n], ps.Tau[:n]
	var fallbacks atomic.Int64 // integer sums do not depend on the order
	par.Range(ps.NLocal, p.workers(), func(_, lo, hi int) {
		failed := 0
		for i := lo; i < hi; i++ {
			hi1, pi := h[i], pos[i]
			norm := prof.Norm(hi1)
			var xx, xy, xz, yy, yz, zz float64
			for _, j := range nl.Of(i) {
				pj := pos[j]
				dx, dy, dz := mi.x.image(pj.X-pi.X), mi.y.image(pj.Y-pi.Y), mi.z.image(pj.Z-pi.Z) // r_j - r_i
				s := ve[j] * (norm * prof.W(math.Sqrt(dx*dx+dy*dy+dz*dz)/hi1))
				xx += s * dx * dx
				xy += s * dx * dy
				xz += s * dx * dz
				yy += s * dy * dy
				yz += s * dy * dz
				zz += s * dz * dz
			}
			t := vec.Sym33{XX: xx, XY: xy, XZ: xz, YY: yy, YZ: yz, ZZ: zz}
			inv, ok := t.Inverse()
			if !ok || !isWellConditioned(t) {
				failed++
				inv = vec.Sym33{}
			}
			tau[i] = inv
		}
		fallbacks.Add(int64(failed))
	})
	return int(fallbacks.Load())
}

// isWellConditioned rejects tau matrices whose determinant is tiny relative
// to their trace cubed, a scale-free conditioning proxy.
func isWellConditioned(m vec.Sym33) bool {
	tr := m.Trace()
	if tr <= 0 {
		return false
	}
	det := m.Det()
	return det > 1e-12*tr*tr*tr/27 && !math.IsNaN(det)
}

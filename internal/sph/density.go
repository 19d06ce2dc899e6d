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
	n := ps.NLocal
	needBootstrap := false
	if p.Volumes == GeneralizedVolume {
		for i := 0; i < ps.Len(); i++ {
			if ps.Rho[i] <= 0 {
				needBootstrap = true
				break
			}
		}
	}

	if p.Volumes == StandardVolume || needBootstrap {
		par.Range(n, p.workers(), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				rho := kernelSum(ps, nl, p, ps.Mass, i)
				ps.Rho[i] = rho
				ps.VE[i] = ps.Mass[i] / rho
			}
		})
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
	par.Range(n, p.workers(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ve := x[i] / kernelSum(ps, nl, p, x, i)
			ps.VE[i] = ve
			ps.Rho[i] = ps.Mass[i] / ve
		}
	})
}

// kernelSum returns sum_j a_j W_ij(h_i) over particle i's neighbors, self
// term included.
func kernelSum(ps *part.Set, nl *NeighborList, p *Params, a []float64, i int) float64 {
	prof := kernel.ProfileOf(p.Kernel)
	h, pos := ps.H[i], ps.Pos[i]
	norm := prof.Norm(h)
	sum := a[i] * (norm * prof.W(0))
	for _, j := range nl.Of(i) {
		d := p.PBC.Wrap(pos.Sub(ps.Pos[j]))
		sum += a[j] * (norm * prof.W(d.Norm()/h))
	}
	return sum
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
	workers := p.workers()
	prof := kernel.ProfileOf(p.Kernel)
	var fallbacks atomic.Int64 // integer sums do not depend on the order
	par.Range(ps.NLocal, workers, func(_, lo, hi int) {
		failed := 0
		for i := lo; i < hi; i++ {
			h, pos := ps.H[i], ps.Pos[i]
			norm := prof.Norm(h)
			var tau vec.Sym33
			for _, j := range nl.Of(i) {
				d := p.PBC.Wrap(ps.Pos[j].Sub(pos)) // r_j - r_i
				s := ps.VE[j] * (norm * prof.W(d.Norm()/h))
				tau.XX += s * d.X * d.X
				tau.XY += s * d.X * d.Y
				tau.XZ += s * d.X * d.Z
				tau.YY += s * d.Y * d.Y
				tau.YZ += s * d.Y * d.Z
				tau.ZZ += s * d.Z * d.Z
			}
			inv, ok := tau.Inverse()
			if !ok || !isWellConditioned(tau) {
				failed++
				inv = vec.Sym33{}
			}
			ps.Tau[i] = inv
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

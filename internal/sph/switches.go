package sph

import (
	"math"

	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/vec"
)

// This file implements two classic SPH quality switches that the parent
// codes employ in production and the mini-app inherits as optional modules:
//
//   - the Balsara (1995) shear limiter, which suppresses artificial
//     viscosity in shear-dominated flows (rotation!) where it would
//     otherwise spuriously transport angular momentum — directly relevant
//     to the rotating-square-patch test;
//   - XSPH (Monaghan 1989), the smoothed transport velocity used by
//     free-surface CFD codes like SPH-flow (the paper cites its ALE
//     shifting variant [37]) to keep particle distributions regular.

// VelocityDivCurl computes per-particle velocity divergence and curl
// magnitude with kernel-derivative estimators:
//
//	div v_i  = 1/rho_i sum_j m_j (v_j - v_i) . grad_i W_ij
//	curl v_i = 1/rho_i sum_j m_j (v_j - v_i) x grad_i W_ij
//
// Density must be current. Results are returned in caller-provided slices
// (allocated when nil) of length >= NLocal.
func VelocityDivCurl(ps *part.Set, nl *NeighborList, p *Params, div []float64, curl []float64) ([]float64, []float64) {
	n := ps.NLocal
	if div == nil {
		div = make([]float64, n)
	}
	if curl == nil {
		curl = make([]float64, n)
	}
	k := p.Kernel
	par.Range(n, p.workers(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			h := ps.H[i]
			var d float64
			var c vec.V3
			for _, j := range nl.Of(i) {
				dr := p.PBC.Wrap(ps.Pos[j].Sub(ps.Pos[i])) // r_j - r_i
				r := dr.Norm()
				if r == 0 {
					continue
				}
				// grad_i W_ij = -W'(r)/r * dr (points from i toward j).
				g := dr.Scale(-k.GradW(r, h) / r)
				dv := ps.Vel[j].Sub(ps.Vel[i])
				d += ps.Mass[j] * dv.Dot(g)
				c = c.Add(dv.Cross(g).Scale(ps.Mass[j]))
			}
			rho := ps.Rho[i]
			if rho > 0 {
				div[i] = d / rho
				curl[i] = c.Norm() / rho
			} else {
				div[i], curl[i] = 0, 0
			}
		}
	})
	return div, curl
}

// BalsaraFactors computes the per-particle shear limiter
//
//	f_i = |div v| / (|div v| + |curl v| + 1e-4 c_i / h_i)
//
// (Balsara 1995). f ~ 1 in compressive flows (shocks keep full viscosity),
// f ~ 0 in pure shear (rotation keeps its angular momentum). Sound speed
// must be current.
func BalsaraFactors(ps *part.Set, nl *NeighborList, p *Params, out []float64) []float64 {
	n := ps.NLocal
	if out == nil {
		out = make([]float64, n)
	}
	div, curl := VelocityDivCurl(ps, nl, p, nil, nil)
	for i := 0; i < n; i++ {
		ad := math.Abs(div[i])
		reg := 1e-4 * ps.C[i] / ps.H[i]
		den := ad + curl[i] + reg
		if den > 0 {
			out[i] = ad / den
		} else {
			out[i] = 1
		}
	}
	return out
}

// XSPHCorrection computes the XSPH velocity smoothing
//
//	dv_i = eps * sum_j (2 m_j / (rho_i + rho_j)) (v_j - v_i) Wbar_ij
//
// returned as per-particle velocity deltas; the integrator drifts positions
// with v + dv while kicking with the unmodified momentum equation, the
// standard quasi-Lagrangian transport-velocity treatment.
func XSPHCorrection(ps *part.Set, nl *NeighborList, p *Params, eps float64, out []vec.V3) []vec.V3 {
	n := ps.NLocal
	if out == nil {
		out = make([]vec.V3, n)
	}
	k := p.Kernel
	par.Range(n, p.workers(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var dv vec.V3
			hi1 := ps.H[i]
			for _, j := range nl.Of(i) {
				dr := p.PBC.Wrap(ps.Pos[j].Sub(ps.Pos[i]))
				r := dr.Norm()
				w := 0.5 * (k.W(r, hi1) + k.W(r, ps.H[j]))
				rhobar := 0.5 * (ps.Rho[i] + ps.Rho[j])
				if rhobar <= 0 {
					continue
				}
				dv = dv.MulAdd(ps.Mass[j]*w/rhobar, ps.Vel[j].Sub(ps.Vel[i]))
			}
			out[i] = dv.Scale(eps)
		}
	})
	return out
}

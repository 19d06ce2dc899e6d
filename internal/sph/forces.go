package sph

import (
	"math"
	"slices"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/vec"
)

// ForceStats aggregates diagnostics from a momentum/energy evaluation.
type ForceStats struct {
	// MaxVSignal is the largest pairwise signal speed encountered,
	// vsig = c_i + c_j - 3 min(0, v_ij . rhat_ij), which drives the Courant
	// time-step.
	MaxVSignal float64
	// Interactions is the number of particle pairs evaluated.
	Interactions int64
}

// MomentumEnergy evaluates hydrodynamic accelerations and du/dt for all
// owned particles (the core of step 3 in Algorithm 1), writing ps.Acc and
// ps.DU. Gravity, if enabled, is added separately by the caller.
//
// With KernelDerivatives gradients the equation set is the classic Monaghan
// symmetrized form with averaged kernels:
//
//	dv_i/dt = -sum_j m_j (P_i/rho_i^2 + P_j/rho_j^2 + Pi_ij) gradWbar_ij
//	du_i/dt =  sum_j m_j (P_i/rho_i^2 + Pi_ij/2) v_ij . gradWbar_ij
//
// With IAD gradients, gradW(h_i) is replaced by A_ij = C_i (r_j - r_i)
// W_ij(h_i) and gradW(h_j) by A'_ij = C_j (r_j - r_i) W_ij(h_j), the pair
// force remaining exactly antisymmetric (García-Senz et al. 2012):
//
//	dv_i/dt = -sum_j m_j (P_i/rho_i^2 A_ij + P_j/rho_j^2 A'_ij) - visc
//
// Pi_ij is the Monaghan-Gingold artificial viscosity.
func MomentumEnergy(ps *part.Set, nl *NeighborList, p *Params) ForceStats {
	return new(Workspace).MomentumEnergy(ps, nl, p)
}

// MomentumEnergy is MomentumEnergy with its per-particle factors and
// per-worker stats in the workspace.
func (ws *Workspace) MomentumEnergy(ps *part.Set, nl *NeighborList, p *Params) ForceStats {
	workers := p.workers()
	prof := kernel.ProfileOf(p.Kernel)
	eta2 := p.EtaVisc * p.EtaVisc

	// Each particle's factors once, from the values its pairs would compute.
	n := ps.Len()
	ws.pr, ws.norm = slices.Grow(ws.pr[:0], n)[:n], slices.Grow(ws.norm[:0], n)[:n]
	ws.iad = slices.Grow(ws.iad[:0], n)[:n]
	pr, norm, iad := ws.pr, ws.norm, ws.iad
	for j := range n {
		pr[j] = ps.P[j] / (ps.Rho[j] * ps.Rho[j])
		iad[j] = p.Gradients == IAD && ps.Tau[j] != (vec.Sym33{})
		if iad[j] {
			norm[j] = prof.Norm(ps.H[j])
		} else {
			norm[j] = prof.GradNorm(ps.H[j])
		}
	}

	stats := slices.Grow(ws.stats[:0], workers)[:workers]
	clear(stats)
	ws.stats = stats
	par.Range(ps.NLocal, workers, func(w, lo, hi int) {
		var st ForceStats
		for i := lo; i < hi; i++ {
			hi1, pos, vel := ps.H[i], ps.Pos[i], ps.Vel[i]
			rhoi := ps.Rho[i]
			pri := pr[i]
			ci := ps.C[i]
			Ci := &ps.Tau[i]

			var acc vec.V3
			var du float64
			for _, j := range nl.Of(i) {
				d := p.PBC.Wrap(ps.Pos[j].Sub(pos)) // r_j - r_i
				r2 := d.Norm2()
				if r2 == 0 {
					continue // coincident particles exert no pair force
				}
				r := math.Sqrt(r2)
				rhoj := ps.Rho[j]
				prj := pr[j]

				ai := pairGradient(prof, iad[i], Ci, norm[i], hi1, d, r)
				aj := pairGradient(prof, iad[j], &ps.Tau[j], norm[j], ps.H[j], d, r)

				// Artificial viscosity (Monaghan & Gingold 1983): active for
				// approaching pairs, v_ij . x_ij < 0 with x_ij = r_i - r_j = -d.
				vij := vel.Sub(ps.Vel[j])
				vdotx := -vij.Dot(d)
				csum := ci + ps.C[j]
				var piij float64
				if vdotx < 0 {
					hbar := 0.5 * (hi1 + ps.H[j])
					mu := hbar * vdotx / (r2 + eta2*hbar*hbar)
					piij = (-p.AlphaVisc*(0.5*csum)*mu + p.BetaVisc*mu*mu) / (0.5 * (rhoi + rhoj))
					// Signal speed c_i + c_j - 3 min(0, v_ij . rhat_ij).
					csum -= 3 * (vdotx / r)
				}
				if csum > st.MaxVSignal {
					st.MaxVSignal = csum
				}

				// Pair force: -(P_i/rho_i^2) A_ij - (P_j/rho_j^2) A'_ij,
				// viscosity on the symmetrized gradient.
				mj := ps.Mass[j]
				abar := ai.Add(aj).Scale(0.5)
				acc = acc.MulAdd(mj*pri, ai.Neg()).
					MulAdd(mj*prj, aj.Neg()).
					MulAdd(-mj*piij, abar)

				// Energy: du_i/dt = sum m_j (P_i/rho_i^2) v_ij.A_ij
				//                 + 0.5 sum m_j Pi_ij v_ij.Abar.
				du += mj * pri * vij.Dot(ai)
				du += 0.5 * mj * piij * vij.Dot(abar)
				st.Interactions++
			}
			ps.Acc[i] = acc
			ps.DU[i] = du
			// Self signal speed floor: isolated particles still need a
			// Courant bound.
			if 2*ci > st.MaxVSignal {
				st.MaxVSignal = 2 * ci
			}
		}
		stats[w].MaxVSignal = math.Max(stats[w].MaxVSignal, st.MaxVSignal)
		stats[w].Interactions += st.Interactions
	})

	var total ForceStats
	for _, st := range stats {
		total.MaxVSignal = math.Max(total.MaxVSignal, st.MaxVSignal)
		total.Interactions += st.Interactions
	}
	return total
}

// pairGradient returns the gradient surrogate of the particle with IAD matrix
// C, kernel norm and smoothing length h for a pair at displacement
// d = r_j - r_i, |d| = r: C d W(r,h) when iad, and otherwise (IAD is off, or
// the particle's tau was singular and C is zero) the kernel gradient
// -W'/r * d = |W'| dhat, which points from i toward j (W' < 0 inside
// support). Each particle's term is chosen by that particle alone, so i's and
// j's loops agree and the pair force stays antisymmetric when one of the two
// falls back.
func pairGradient(prof kernel.Profile, iad bool, C *vec.Sym33, norm, h float64, d vec.V3, r float64) vec.V3 {
	if iad {
		return C.MulVec(d).Scale(norm * prof.W(r/h))
	}
	return d.Scale(-(norm * prof.DW(r/h)) / r)
}

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
	prof, mi := kernel.ProfileOf(p.Kernel), newMinImage(p.PBC)
	eta2, alpha, beta := p.EtaVisc*p.EtaVisc, p.AlphaVisc, p.BetaVisc

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
		// Every column at one length n: one bounds check on j covers them all.
		pos, vel, h, rho, c, mass := ps.Pos[:n], ps.Vel[:n], ps.H[:n], ps.Rho[:n], ps.C[:n], ps.Mass[:n]
		tau, pr, norm, iad := ps.Tau[:n], pr[:n], norm[:n], iad[:n]
		vmax, pairs := stats[w].MaxVSignal, int64(0)
		for i := lo; i < hi; i++ {
			hi1, pi, vi := h[i], pos[i], vel[i]
			rhoi, pri, ci, normi, iadi, Ci := rho[i], pr[i], c[i], norm[i], iad[i], &tau[i]

			var ax, ay, az, du float64
			for _, j := range nl.Of(i) {
				pj := pos[j]
				dx, dy, dz := mi.x.image(pj.X-pi.X), mi.y.image(pj.Y-pi.Y), mi.z.image(pj.Z-pi.Z) // r_j - r_i
				r2 := dx*dx + dy*dy + dz*dz
				if r2 == 0 {
					continue // coincident particles exert no pair force
				}
				r := math.Sqrt(r2)
				hj, rhoj, prj := h[j], rho[j], pr[j]

				// Artificial viscosity (Monaghan & Gingold 1983): active for
				// approaching pairs, v_ij . x_ij < 0 with x_ij = r_i - r_j = -d.
				vx, vy, vz := vi.X-vel[j].X, vi.Y-vel[j].Y, vi.Z-vel[j].Z // v_ij
				vdotx := -(vx*dx + vy*dy + vz*dz)
				csum := ci + c[j]
				var piij float64
				if vdotx < 0 {
					hbar := 0.5 * (hi1 + hj)
					mu := hbar * vdotx / (r2 + eta2*hbar*hbar)
					piij = (-alpha*(0.5*csum)*mu + beta*mu*mu) / (0.5 * (rhoi + rhoj))
					// Signal speed c_i + c_j - 3 min(0, v_ij . rhat_ij).
					csum -= 3 * (vdotx / r)
				}
				if csum > vmax {
					vmax = csum
				}

				// Each particle's gradient surrogate, chosen by that particle
				// alone so that the pair force stays antisymmetric when one of
				// the two falls back: C d W(r,h) under IAD, and otherwise (IAD
				// is off, or tau was singular) the kernel gradient -W'/r d.
				var aix, aiy, aiz, ajx, ajy, ajz float64
				if iadi {
					s := normi * prof.W(r/hi1)
					aix, aiy, aiz = s*(Ci.XX*dx+Ci.XY*dy+Ci.XZ*dz), s*(Ci.XY*dx+Ci.YY*dy+Ci.YZ*dz), s*(Ci.XZ*dx+Ci.YZ*dy+Ci.ZZ*dz)
				} else {
					s := -(normi * prof.DW(r/hi1)) / r
					aix, aiy, aiz = s*dx, s*dy, s*dz
				}
				if Cj := &tau[j]; iad[j] {
					s := norm[j] * prof.W(r/hj)
					ajx, ajy, ajz = s*(Cj.XX*dx+Cj.XY*dy+Cj.XZ*dz), s*(Cj.XY*dx+Cj.YY*dy+Cj.YZ*dz), s*(Cj.XZ*dx+Cj.YZ*dy+Cj.ZZ*dz)
				} else {
					s := -(norm[j] * prof.DW(r/hj)) / r
					ajx, ajy, ajz = s*dx, s*dy, s*dz
				}

				// Pair force: -(P_i/rho_i^2) A_ij - (P_j/rho_j^2) A'_ij,
				// viscosity on the symmetrized gradient.
				mj := mass[j]
				bx, by, bz := 0.5*(aix+ajx), 0.5*(aiy+ajy), 0.5*(aiz+ajz)
				si, sj, sv := mj*pri, mj*prj, -mj*piij
				ax = ax + si*-aix + sj*-ajx + sv*bx
				ay = ay + si*-aiy + sj*-ajy + sv*by
				az = az + si*-aiz + sj*-ajz + sv*bz

				// Energy: du_i/dt = sum m_j (P_i/rho_i^2) v_ij.A_ij
				//                 + 0.5 sum m_j Pi_ij v_ij.Abar.
				du += si * (vx*aix + vy*aiy + vz*aiz)
				du += 0.5 * mj * piij * (vx*bx + vy*by + vz*bz)
				pairs++
			}
			ps.Acc[i] = vec.V3{X: ax, Y: ay, Z: az}
			ps.DU[i] = du
			// Self signal speed floor: isolated particles still need a
			// Courant bound.
			if 2*ci > vmax {
				vmax = 2 * ci
			}
		}
		stats[w].MaxVSignal = vmax
		stats[w].Interactions += pairs
	})

	var total ForceStats
	for _, st := range stats {
		total.MaxVSignal = math.Max(total.MaxVSignal, st.MaxVSignal)
		total.Interactions += st.Interactions
	}
	return total
}

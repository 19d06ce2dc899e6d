package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/part"
	"repro/internal/sph"
	"repro/internal/vec"
)

// TestPermutationInvariance: the order particles are stored in is not
// physics. A seeded shuffle of the input ends, per particle ID, in the
// state of the unshuffled run bit for bit, on the shared-memory engine and
// on four ranks. A kernel that sums in storage order somewhere (a leaf's
// gravity sources, a neighbour list) fails here.
func TestPermutationInvariance(t *testing.T) {
	for _, pc := range parityCases {
		t.Run(pc.name, func(t *testing.T) {
			cfg, ps := pc.gen(sph.IAD)
			shuffled := ps.Select(rand.New(rand.NewSource(17)).Perm(ps.NLocal))
			serial := func(in *part.Set) map[int64]particleState {
				sim, err := New(cfg, in.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sim.Run(paritySteps, 0); err != nil {
					t.Fatal(err)
				}
				return statesByID(sim.PS)
			}
			ranks4 := func(in *part.Set) map[int64]particleState {
				end, _ := parityParallel(t, cfg, in.Clone(), 4, paritySteps)
				return statesByID(end)
			}
			for _, run := range []struct {
				name string
				end  func(*part.Set) map[int64]particleState
			}{{"serial", serial}, {"4 ranks", ranks4}} {
				want, got := run.end(ps), run.end(shuffled)
				if len(got) != len(want) {
					t.Fatalf("%s: %d particles shuffled, %d in order", run.name, len(got), len(want))
				}
				for id, w := range want {
					if g := got[id]; g != w {
						t.Errorf("%s: particle %d = %+v shuffled, %+v in order", run.name, id, g, w)
						break
					}
				}
			}
		})
	}
}

// Floors of the frame relations on periodic Sedov over symmetrySteps steps:
// the largest deviation measured across both gradient modes, serially and
// on four ranks, with a translation by (0.1234, 0.377, 0) and a boost by
// (0.3, -0.2, 0.1). Each relation is held to symmetrySlack times its floor.
// Smoothing lengths follow integer neighbour counts and must not move.
const (
	symmetrySteps = 10
	symmetrySlack = 4
	floorU        = 8.1e-14 // relative
	floorRho      = 9.3e-15 // relative
	floorVel      = 3.1e-14 // absolute
)

// TestTranslationAndBoostInvariance: the SPH equations do not know where the
// periodic box starts or how fast it moves. Translating every particle by a
// non-lattice vector (folded back into the box, so particles cross faces and
// the search walks other images) or adding one velocity to all of them ends,
// per particle ID, in the untransformed state to round-off: the same h bit
// for bit, and u, rho and the velocity less the boost within the slack of
// their floors. A minimum image with the wrong period fails the
// translation; a signal speed that depends on the frame fails the boost.
func TestTranslationAndBoostInvariance(t *testing.T) {
	shift := vec.V3{X: 0.1234, Y: 0.377}
	boost := vec.V3{X: 0.3, Y: -0.2, Z: 0.1}
	for _, grad := range []sph.GradientMode{sph.IAD, sph.KernelDerivatives} {
		cfg, ps := parityCases[1].gen(grad) // sedov-periodic
		translated, boosted := ps.Clone(), ps.Clone()
		lo, l := cfg.SPH.Box.Lo, cfg.SPH.PBC.L
		fold := func(x, lo, l float64) float64 { return lo + math.Mod(math.Mod(x-lo, l)+l, l) }
		for i := 0; i < ps.NLocal; i++ {
			p := ps.Pos[i].Add(shift)
			translated.Pos[i] = vec.V3{X: fold(p.X, lo.X, l.X), Y: fold(p.Y, lo.Y, l.Y), Z: fold(p.Z, lo.Z, l.Z)}
			boosted.Vel[i] = ps.Vel[i].Add(boost)
		}
		for _, run := range []struct {
			name string
			end  func(*part.Set) *part.Set
		}{
			{"serial", func(in *part.Set) *part.Set {
				sim, err := New(cfg, in.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sim.Run(symmetrySteps, 0); err != nil {
					t.Fatal(err)
				}
				return sim.PS
			}},
			{"4 ranks", func(in *part.Set) *part.Set {
				end, _ := parityParallel(t, cfg, in.Clone(), 4, symmetrySteps)
				return end
			}},
		} {
			want := byID(run.end(ps))
			for _, rel := range []struct {
				name string
				in   *part.Set
				dv   vec.V3
			}{{"translation", translated, vec.V3{}}, {"boost", boosted, boost}} {
				got := run.end(rel.in)
				var du, drho, dvel float64
				for i := 0; i < got.NLocal; i++ {
					w, ok := want[got.ID[i]]
					if !ok {
						t.Fatalf("%s/%s/%s: particle %d missing from the reference run", grad, run.name, rel.name, got.ID[i])
					}
					if got.H[i] != w.H {
						t.Fatalf("%s/%s/%s: particle %d has h %v, reference %v", grad, run.name, rel.name, got.ID[i], got.H[i], w.H)
					}
					du = max(du, math.Abs(got.U[i]-w.U)/math.Abs(w.U))
					drho = max(drho, math.Abs(got.Rho[i]-w.Rho)/math.Abs(w.Rho))
					dvel = max(dvel, got.Vel[i].Sub(rel.dv).Sub(w.Vel).Norm())
				}
				t.Logf("%s/%s/%s: max |du|/u %.2g, |drho|/rho %.2g, |dv| %.2g", grad, run.name, rel.name, du, drho, dvel)
				if !(du <= symmetrySlack*floorU && drho <= symmetrySlack*floorRho && dvel <= symmetrySlack*floorVel) {
					t.Errorf("%s/%s/%s: u %.2g, rho %.2g, v %.2g beyond %d times the floors (%g, %g, %g)",
						grad, run.name, rel.name, du, drho, dvel, symmetrySlack, floorU, floorRho, floorVel)
				}
			}
		}
	}
}

// particle is one particle's compared fields.
type particle struct {
	H, U, Rho float64
	Vel       vec.V3
}

func byID(ps *part.Set) map[int64]particle {
	m := make(map[int64]particle, ps.NLocal)
	for i := 0; i < ps.NLocal; i++ {
		m[ps.ID[i]] = particle{ps.H[i], ps.U[i], ps.Rho[i], ps.Vel[i]}
	}
	return m
}

package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/part"
	"repro/internal/sph"
	"repro/internal/vec"
)

// jitteredMomentumBound is today's level of |Σ m a| / Σ m|a| on the
// jittered states, per parity case: twice the larger reading of the two
// gradient modes (IAD / kernel derivatives, linux/amd64, Go 1.24, equal on
// both drivers to three digits): Evrard 1.9e-4 / 2.4e-4, Sedov 4.3e-4 /
// 7.2e-4, square patch 1.3e-4 / 1.5e-4.
var jitteredMomentumBound = map[string]float64{
	"evrard-gravity": 5e-4,
	"sedov-periodic": 1.5e-3,
	"square-patch":   3e-4,
}

// TestJitteredMomentum measures how far the SPH forces are from summing to
// zero on a state no lattice symmetry protects: each parity case runs 10
// steps without gravity, every position is then moved by up to ±10% of its
// smoothing length on each axis, and one more step computes the forces,
// serially and on 4 ranks, in both gradient modes. A neighbour list gathers
// within 2h_i, so a pair with 2h_j <= r < 2h_i pushes i and not j: the sum
// is not zero, and the test asserts the level it is at today. Forces over
// the symmetric pair set, r < 2 max(h_i, h_j), will make every pair
// antisymmetric; the bound then tightens to 1e-13.
func TestJitteredMomentum(t *testing.T) {
	for _, pc := range parityCases {
		for _, grad := range []sph.GradientMode{sph.IAD, sph.KernelDerivatives} {
			t.Run(pc.name+"/"+grad.String(), func(t *testing.T) {
				cfg, ps := pc.gen(grad)
				cfg.Gravity = false
				sim, err := New(cfg, ps)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sim.Run(10, 0); err != nil {
					t.Fatal(err)
				}
				sim.Synchronize()
				jittered := jitter(sim.PS, &cfg.SPH, rand.New(rand.NewSource(26)))

				serial, err := New(cfg, jittered.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := serial.Step(); err != nil {
					t.Fatal(err)
				}
				ranks, _ := parityParallel(t, cfg, jittered.Clone(), 4, 1)
				bound := jitteredMomentumBound[pc.name]
				for driver, end := range map[string]*part.Set{"serial": serial.PS, "4 ranks": ranks} {
					r := momentumImbalance(end)
					t.Logf("%s: |Σ m a| / Σ m|a| = %.2e", driver, r)
					if !(r <= bound) {
						t.Errorf("%s: |Σ m a| / Σ m|a| = %.3g, above today's %g", driver, r, bound)
					}
				}
			})
		}
	}
}

// jitter returns a copy of ps with every owned position moved by up to
// ±10% of its smoothing length on each axis, folded back into the periodic
// axes' box.
func jitter(ps *part.Set, p *sph.Params, rng *rand.Rand) *part.Set {
	out := ps.Clone()
	fold := func(x, lo, l float64, periodic bool) float64 {
		if periodic && l > 0 {
			x = lo + math.Mod(math.Mod(x-lo, l)+l, l)
		}
		return x
	}
	for i := range out.NLocal {
		d := 0.1 * out.H[i]
		q := out.Pos[i].Add(vec.V3{X: d * (2*rng.Float64() - 1), Y: d * (2*rng.Float64() - 1), Z: d * (2*rng.Float64() - 1)})
		out.Pos[i] = vec.V3{
			X: fold(q.X, p.Box.Lo.X, p.PBC.L.X, p.PBC.X),
			Y: fold(q.Y, p.Box.Lo.Y, p.PBC.L.Y, p.PBC.Y),
			Z: fold(q.Z, p.Box.Lo.Z, p.PBC.L.Z, p.PBC.Z),
		}
	}
	return out
}

// momentumImbalance is |Σ m a| / Σ m|a| over the owned particles: 0 when
// every pair force has its reaction, up to 1 when none has.
func momentumImbalance(ps *part.Set) float64 {
	var sum vec.V3
	var norm float64
	for i := range ps.NLocal {
		sum = sum.Add(ps.Acc[i].Scale(ps.Mass[i]))
		norm += ps.Mass[i] * ps.Acc[i].Norm()
	}
	return sum.Norm() / norm
}

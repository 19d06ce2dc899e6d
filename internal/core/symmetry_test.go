package core

import (
	"math/rand"
	"testing"

	"repro/internal/part"
	"repro/internal/sph"
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

package sph_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/scenario"
	"repro/internal/sph"
	"repro/internal/tree"
)

// TestServeColdJobWalksOnce: the serve-cold job (sedov, N = 216, 20
// neighbours, on a lattice whose shells give 18 or 26) used to walk the tree
// twice per particle while its smoothing lengths were still growing. Over
// its first three steps every particle now walks once, and the list each
// search keeps is still exactly tree.BallSearch at 2h minus the particle
// itself, in the same order.
func TestServeColdJobWalksOnce(t *testing.T) {
	sc, err := scenario.Get("sedov")
	if err != nil {
		t.Fatal(err)
	}
	ps, cfg, err := sc.Generate(scenario.Params{N: 216, NNeighbors: 20, Extra: map[string]float64{"energy": 1}})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.New(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		// The search the step is about to make, on a copy of its input.
		in := sim.PS.Clone()
		var ws sph.Workspace
		tr := ws.BuildTree(in, &sim.Cfg.SPH)
		nl := ws.UpdateSmoothingLengths(in, tr, &sim.Cfg.SPH)
		if nl.Walks != int64(in.NLocal) {
			t.Errorf("step %d: %d walks for %d particles", step, nl.Walks, in.NLocal)
		}
		var hits []tree.Hit
		for i := 0; i < in.NLocal; i++ {
			hits = tr.BallSearch(in.Pos[i], kernel.SupportRadius*in.H[i], hits[:0])
			want := []int32{}
			for _, h := range hits {
				if !(h.Idx == int32(i) && h.Dist2 == 0) {
					want = append(want, h.Idx)
				}
			}
			if got := nl.Of(i); !slices.Equal(got, want) {
				t.Fatalf("step %d, particle %d: list %v, BallSearch at 2h gives %v", step, i, got, want)
			}
		}

		info, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		if info.TreeWalks != int64(in.NLocal) {
			t.Errorf("step %d of the job: %d walks for %d particles", step, info.TreeWalks, in.NLocal)
		}
	}
}

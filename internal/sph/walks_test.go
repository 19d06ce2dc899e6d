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

// TestNeighborListHasNoDuplicates: once the support radius reaches half a
// period, two periodic images of a particle's position can both reach a
// neighbour. Every pair loop measures a listed neighbour through the
// minimum image, so a neighbour listed twice counts the nearest image twice.
// The sedov job below (N = 125, 60 neighbours, a spec a served job may ask
// for) reaches 2h above half the box within eight steps; each list holds a
// particle at most once.
func TestNeighborListHasNoDuplicates(t *testing.T) {
	sc, err := scenario.Get("sedov")
	if err != nil {
		t.Fatal(err)
	}
	ps, cfg, err := sc.Generate(scenario.Params{N: 125, NNeighbors: 60})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.New(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	halfPeriod := false
	for step := 0; step < 8; step++ {
		in := sim.PS.Clone()
		var ws sph.Workspace
		nl := ws.UpdateSmoothingLengths(in, ws.BuildTree(in, &sim.Cfg.SPH), &sim.Cfg.SPH)
		for i := 0; i < in.NLocal; i++ {
			halfPeriod = halfPeriod || 2*kernel.SupportRadius*in.H[i] >= sim.Cfg.SPH.PBC.L.X
			list := slices.Clone(nl.Of(i))
			slices.Sort(list)
			for j := 1; j < len(list); j++ {
				if list[j] == list[j-1] {
					t.Fatalf("step %d: particle %d lists neighbour %d twice (h = %g)", step, i, list[j], in.H[i])
				}
			}
		}
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !halfPeriod {
		t.Fatal("no support radius reached half a period: the case no longer tests the images")
	}
}

// BenchmarkNeighbors8k times step 2 of Algorithm 1 alone: BuildTree and
// UpdateSmoothingLengths on one worker, on the state of each engine
// workload's 8000 particles after 12 steps. Each call starts from that
// state's smoothing lengths and counts.
func BenchmarkNeighbors8k(b *testing.B) {
	for _, name := range []string{"sedov", "evrard", "square"} {
		b.Run(name, func(b *testing.B) {
			sc, err := scenario.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			ps, cfg, err := sc.Generate(scenario.Params{N: 8000})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := core.New(cfg, ps)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(12, 0); err != nil {
				b.Fatal(err)
			}
			p := sim.Cfg.SPH
			p.Workers = 1
			in := sim.PS.Clone()
			var ws sph.Workspace
			b.ResetTimer()
			for range b.N {
				copy(in.H, sim.PS.H)
				copy(in.NN, sim.PS.NN)
				ws.UpdateSmoothingLengths(in, ws.BuildTree(in, &p), &p)
			}
		})
	}
}

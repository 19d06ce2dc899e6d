package tree_test

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/scenario"
	"repro/internal/sfc"
	"repro/internal/tree"
	"repro/internal/vec"
)

// TestBallSearchOrderPinned pins BallSearch's output bit for bit: every hit's
// Idx and Dist2 bits, in output order, of a search around each particle at
// the two walk radii sph uses (2h·1.03 and 2h·1.25), on the 8000-particle
// initial conditions of sedov (fully periodic), evrard (open) and square
// (z-periodic), and on a cloud with points outside its box. Every digest,
// pair count and golden downstream of the neighbour search rests on this
// sequence; a faster search must leave these CRCs where they are. Every
// radius here is below half a period.
func TestBallSearchOrderPinned(t *testing.T) {
	type set struct {
		name string
		pos  []vec.V3
		h    func(i int) float64
		opt  tree.Options
	}
	var sets []set
	for _, name := range []string{"sedov", "evrard", "square"} {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ps, cfg, err := sc.Generate(scenario.Params{N: 8000})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set{name, ps.Pos, func(i int) float64 { return ps.H[i] },
			tree.Options{LeafCap: cfg.SPH.LeafCap, PBC: cfg.SPH.PBC, Box: cfg.SPH.Box}})
	}
	sets = append(sets, set{"out-of-box cloud", tree.OutOfBoxCloud(), func(int) float64 { return 0.05 },
		tree.Options{LeafCap: 4, Box: sfc.Box{Size: 1}}})

	want := map[string]uint64{
		"sedov":            0x3d7fbb96d923cd08,
		"evrard":           0x61574cb30a1a2233,
		"square":           0x15f885ff1c3684ac,
		"out-of-box cloud": 0xc2d88c9e2c176217,
	}
	for _, s := range sets {
		tr := tree.Build(s.pos, s.opt)
		crc := crc64.New(crc64.MakeTable(crc64.ECMA))
		var buf [12]byte
		var hits []tree.Hit
		pbc := s.opt.PBC
		halfPeriod := math.Inf(1)
		for _, l := range []struct {
			on bool
			l  float64
		}{{pbc.X, pbc.L.X}, {pbc.Y, pbc.L.Y}, {pbc.Z, pbc.L.Z}} {
			if l.on {
				halfPeriod = min(halfPeriod, l.l/2)
			}
		}
		for i, c := range s.pos {
			for _, margin := range []float64{1.03, 1.25} {
				r := kernel.SupportRadius * s.h(i) * margin
				if r >= halfPeriod {
					t.Fatalf("%s: particle %d searches %g, half a period is %g", s.name, i, r, halfPeriod)
				}
				hits = tr.BallSearch(c, r, hits[:0])
				binary.LittleEndian.PutUint32(buf[:4], uint32(len(hits)))
				crc.Write(buf[:4])
				for _, h := range hits {
					binary.LittleEndian.PutUint32(buf[:4], uint32(h.Idx))
					binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(h.Dist2))
					crc.Write(buf[:])
				}
			}
		}
		if got := crc.Sum64(); got != want[s.name] {
			t.Errorf("%s: hit sequence CRC-64 %016x, pinned %016x", s.name, got, want[s.name])
		}
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"reflect"
	"testing"

	"repro/internal/part"
	"repro/internal/sph"
)

// columnsCRC fingerprints every column of ps bit for bit, the in-memory ones
// included: Checksum covers only the stored record.
func columnsCRC(ps *part.Set) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	for v, i := reflect.ValueOf(*ps), 0; i < v.NumField(); i++ {
		col := v.Field(i).Interface()
		if n, ok := col.(int); ok {
			col = int64(n) // NLocal
		}
		if err := binary.Write(h, binary.LittleEndian, col); err != nil {
			panic(err) // every other field is a column of a fixed-size type
		}
	}
	return h.Sum64()
}

// TestRecordHoldsTheState: once the leapfrog is synchronized, the seven
// columns a stored record holds are all the next steps read, and each of
// them is read. For the three parity cases under IAD, serially and on 2
// ranks: 4 steps, a round trip through the codec, 4 more steps. The result
// must be the continuation of the in-memory set in every column, bit for
// bit, and raising one particle's Pos.X, Vel.Y, Mass, H or U by one ulp in
// the decoded set must change it; Rho too under generalized volumes, where
// it seeds X = m/ρ (under standard volumes it is recomputed before use).
func TestRecordHoldsTheState(t *testing.T) {
	const steps = 4
	ulp := func(x *float64) { *x = math.Nextafter(*x, math.Inf(1)) }
	mutations := []struct {
		column string
		raise  func(ps *part.Set, i int)
	}{
		{"Pos.X", func(ps *part.Set, i int) { ulp(&ps.Pos[i].X) }},
		{"Vel.Y", func(ps *part.Set, i int) { ulp(&ps.Vel[i].Y) }},
		{"Mass", func(ps *part.Set, i int) { ulp(&ps.Mass[i]) }},
		{"H", func(ps *part.Set, i int) { ulp(&ps.H[i]) }},
		{"U", func(ps *part.Set, i int) { ulp(&ps.U[i]) }},
		{"Rho", func(ps *part.Set, i int) { ulp(&ps.Rho[i]) }},
	}
	for _, pc := range parityCases {
		cfg, start := pc.gen(sph.IAD)
		drivers := []struct {
			name string
			run  func(ps *part.Set) *part.Set // steps, ending synchronized
		}{
			{"serial", func(ps *part.Set) *part.Set {
				sim, err := New(cfg, ps)
				if err != nil {
					t.Fatal(err)
				}
				for range steps {
					if _, err := sim.Step(); err != nil {
						t.Fatal(err)
					}
				}
				sim.Synchronize()
				return sim.PS
			}},
			{"2 ranks", func(ps *part.Set) *part.Set {
				end, _ := parityParallel(t, cfg, ps, 2, steps)
				return end
			}},
		}
		for _, d := range drivers {
			t.Run(pc.name+"/"+d.name, func(t *testing.T) {
				mid := d.run(start.Clone())
				var frame bytes.Buffer
				if _, err := mid.WriteTo(&frame); err != nil {
					t.Fatal(err)
				}
				decoded := func() *part.Set {
					ps := part.New(0)
					if _, err := ps.ReadFrom(bytes.NewReader(frame.Bytes())); err != nil {
						t.Fatal(err)
					}
					return ps
				}
				want := columnsCRC(d.run(mid.Clone()))
				if got := columnsCRC(d.run(decoded())); got != want {
					t.Fatalf("continued from the decoded record: columns %016x, from memory %016x", got, want)
				}
				// A one-ulp raise can be rounded away (a velocity of 0 becomes
				// a denormal that Pos + v·dt drops, a u at its floor is clamped
				// back), so the column is read if some particle's raise shows:
				// every 40th particle is tried in turn.
				for _, m := range mutations {
					if m.column == "Rho" && cfg.SPH.Volumes != sph.GeneralizedVolume {
						continue
					}
					shows := false
					for i := 0; i < mid.NLocal && !shows; i += 40 {
						ps := decoded()
						m.raise(ps, i)
						shows = columnsCRC(d.run(ps)) != want
					}
					if !shows {
						t.Errorf("%s raised one ulp on every 40th particle in turn: no continuation changed", m.column)
					}
				}
			})
		}
	}
}

// TestPairLoopsPinnedOnRanks pins, bit for bit, the end state of each parity
// case under both gradient modes on 2 ranks, every column of it: there the
// pair passes also read the ghosts' columns a halo exchange filled. A faster
// pair loop must leave every CRC where it is (sph.TestPairLoopsPinned pins
// the loops alone).
func TestPairLoopsPinnedOnRanks(t *testing.T) {
	want := map[string]uint64{
		"evrard-gravity/iad":                0x5aefdcddaa04edda,
		"evrard-gravity/kernel-derivatives": 0xb4e659a87edbf2e2,
		"sedov-periodic/iad":                0x21feb35794d0e5d2,
		"sedov-periodic/kernel-derivatives": 0x115cbb981cdaac64,
		"square-patch/iad":                  0xabbf2fbb712dc659,
		"square-patch/kernel-derivatives":   0xb25dbe5138d272d6,
	}
	for _, pc := range parityCases {
		for _, grad := range []sph.GradientMode{sph.IAD, sph.KernelDerivatives} {
			cfg, ps := pc.gen(grad)
			end, _ := parityParallel(t, cfg, ps, 2, paritySteps)
			key := pc.name + "/" + grad.String()
			if got := columnsCRC(end); got != want[key] {
				t.Errorf("%s: columns %#016x, pinned %#016x", key, got, want[key])
			}
		}
	}
}

package sph_test

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/part"
	"repro/internal/scenario"
	"repro/internal/sph"
	"repro/internal/vec"
)

// TestPairLoopsPinned pins the three pair passes of a step bit for bit:
// Density, ComputeIAD and MomentumEnergy, run on the state of the sedov
// (fully periodic), evrard (open) and square (z-periodic) scenarios at
// N = 1000 after three steps. Each case hashes every owned particle's Rho,
// VE, Tau, Acc and DU bits, the IAD fallback count and the returned
// MaxVSignal and Interactions. The variants cover IAD and kernel
// derivatives, generalized volumes with and without the ρ = 0 bootstrap,
// standard volumes, and ChaNGa's numerics (Wendland C2, kernel derivatives,
// standard volumes). Under IAD one particle's matrix is zeroed before the
// force pass, so its pairs mix an IAD term with a kernel-derivative term.
// A faster loop must leave every hash where it is.
func TestPairLoopsPinned(t *testing.T) {
	want := map[string]uint64{
		"sedov/iad/generalized":            0xa844181fd566cdc8,
		"sedov/iad/generalized-bootstrap":  0x6323d444bbbbeaaa,
		"sedov/iad/standard":               0x84c2c2ac5bcdac88,
		"sedov/kd/generalized":             0xa7b96983325633b5,
		"sedov/changa":                     0xa1396b56288fa589,
		"evrard/iad/generalized":           0xca9155fe1b9658a9,
		"evrard/iad/generalized-bootstrap": 0xc5caec3dc4fb94bf,
		"evrard/iad/standard":              0x9bea0783a8d8c0e1,
		"evrard/kd/generalized":            0x7cc7955cee4673db,
		"evrard/changa":                    0x86d97608edddc96d,
		"square/iad/generalized":           0x04ccb20d2088456f,
		"square/iad/generalized-bootstrap": 0x40e23dcc4dffbe13,
		"square/iad/standard":              0x56f30f170f2ee98c,
		"square/kd/generalized":            0x4449947022d73fe5,
		"square/changa":                    0xa9890c0656f3788f,
	}
	variants := []struct {
		name string
		set  func(cfg *core.Config)
		rho0 bool // zero Rho first: generalized volumes bootstrap
	}{
		{"iad/generalized", func(*core.Config) {}, false},
		{"iad/generalized-bootstrap", func(*core.Config) {}, true},
		{"iad/standard", func(cfg *core.Config) { cfg.SPH.Volumes = sph.StandardVolume }, false},
		{"kd/generalized", func(cfg *core.Config) { cfg.SPH.Gradients = sph.KernelDerivatives }, false},
		{"changa", func(cfg *core.Config) {
			if err := codes.ChaNGa().Configure(cfg); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, name := range []string{"sedov", "evrard", "square"} {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ps, cfg, err := sc.Generate(scenario.Params{N: 1000})
		if err != nil {
			t.Fatal(err)
		}
		cfg.SPH.Workers = 2
		sim, err := core.New(cfg, ps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(3, 0); err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			c := sim.Cfg
			v.set(&c)
			in := sim.PS.Clone()
			if v.rho0 {
				clear(in.Rho)
			}
			key := name + "/" + v.name
			got := pairLoopsHash(in, &c.SPH)
			if got != want[key] {
				t.Errorf("%s: pair passes hash to %#016x, pinned %#016x", key, got, want[key])
			}
		}
	}
}

// pairLoopsHash runs one search and the three pair passes on ps under p and
// returns the CRC-64 of what they write and return.
func pairLoopsHash(ps *part.Set, p *sph.Params) uint64 {
	var ws sph.Workspace
	nl := ws.UpdateSmoothingLengths(ps, ws.BuildTree(ps, p), p)
	ws.Density(ps, nl, p)
	sph.EquationOfState(ps, p)
	fallbacks := 0
	if p.Gradients == sph.IAD {
		fallbacks = sph.ComputeIAD(ps, nl, p)
	}
	tau := ps.Tau[7]
	if p.Gradients == sph.IAD {
		ps.Tau[7] = vec.Sym33{} // a degenerate neighbourhood's fallback
	}
	st := ws.MomentumEnergy(ps, nl, p)
	ps.Tau[7] = tau

	crc := crc64.New(crc64.MakeTable(crc64.ECMA))
	var buf [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			crc.Write(buf[:])
		}
	}
	for i := range ps.NLocal {
		m, a := ps.Tau[i], ps.Acc[i]
		put(ps.Rho[i], ps.VE[i], m.XX, m.XY, m.XZ, m.YY, m.YZ, m.ZZ, a.X, a.Y, a.Z, ps.DU[i])
	}
	put(st.MaxVSignal, float64(st.Interactions), float64(fallbacks))
	return crc.Sum64()
}

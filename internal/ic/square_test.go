package ic_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ic"
	"repro/internal/scenario"
)

// TestSquarePatchIsItsSeries: every particle of a square patch carries the
// density and mass of the Tait inversion of the Poisson series evaluated at
// its own (x, y), bit for bit, however Generate organises the summation. A
// column cache indexed by ix alone, or offset by one row, hands a particle
// its neighbour's pressure and fails here. The square scenario's set at
// N = 8,000 is pinned whole, so no stored byte can move either.
func TestSquarePatchIsItsSeries(t *testing.T) {
	odd := ic.DefaultSquarePatch(1000)
	odd.NSide, odd.NLayers, odd.PressureTerms, odd.L = 7, 3, 5, 2
	for _, sp := range []ic.SquarePatch{ic.DefaultSquarePatch(1000), odd} {
		ps, _, _ := sp.Generate(nil)
		dx := sp.L / float64(sp.NSide)
		cellVol := dx * dx * dx
		b := sp.Rho0 * sp.SoundSpeed * sp.SoundSpeed / 7
		for i := 0; i < ps.NLocal; i++ {
			ratio := max(1+sp.Pressure(ps.Pos[i].X, ps.Pos[i].Y)/b, 0.1)
			rho := sp.Rho0 * math.Pow(ratio, 1.0/7)
			if ps.Rho[i] != rho || ps.Mass[i] != rho*cellVol {
				t.Fatalf("NSide %d: particle %d at %v has rho %v, mass %v; its series gives %v, %v",
					sp.NSide, i, ps.Pos[i], ps.Rho[i], ps.Mass[i], rho, rho*cellVol)
			}
		}
	}

	sq, err := scenario.Get("square")
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := sq.Generate(scenario.Params{N: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ps.Checksum(), uint64(0x39788f02db3c0cb4); got != want {
		t.Errorf("square N = 8000: checksum %016x, pinned %016x", got, want)
	}
}

// BenchmarkSquarePatchGenerate times one generation of the default patch
// into a new set, as the figure harness makes one for every rung, at the
// square-ranks workload's N and at the harness's default ExecN.
func BenchmarkSquarePatchGenerate(b *testing.B) {
	for _, n := range []int{8000, 64000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			sp := ic.DefaultSquarePatch(n)
			for b.Loop() {
				sp.Generate(nil)
			}
		})
	}
}

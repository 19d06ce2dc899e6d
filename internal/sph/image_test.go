package sph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/vec"
)

// TestMinImageMatchesWrap: the pair loops' inline minimum image is
// tree.PBC.Wrap bit for bit on every axis, wrapping or not. The fixed cases
// are the ones the pinned pair-loop hashes cannot see: ±0 (a wrapping axis
// turns −0 into +0, one that does not wrap keeps it), both sides of ±L/2,
// ±L, 3.7L, NaN and ±Inf; a random sweep adds the neighbourhoods of every
// half-period up to ±5L.
func TestMinImageMatchesWrap(t *testing.T) {
	const l = 2.5
	half := 0.5 * l
	negZero := math.Copysign(0, -1)
	inputs := []float64{
		0, negZero, l, -l, 3.7 * l, -3.7 * l, math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, h := range []float64{half, -half} {
		inputs = append(inputs, h, math.Nextafter(h, 0), math.Nextafter(h, 2*h))
	}
	rng := rand.New(rand.NewSource(1))
	for k := -10; k <= 10; k++ {
		at := float64(k) * half
		for range 20 {
			inputs = append(inputs, at+(rng.Float64()-0.5)*1e-12, at+(rng.Float64()-0.5)*l)
		}
		inputs = append(inputs, at, math.Nextafter(at, math.Inf(-1)), math.Nextafter(at, math.Inf(1)))
	}

	cases := []struct {
		name string
		pbc  tree.PBC
	}{
		{"x wraps", tree.PBC{X: true, L: vec.V3{X: l, Y: l, Z: l}}},
		{"all wrap", tree.PBC{X: true, Y: true, Z: true, L: vec.V3{X: l, Y: 1, Z: 7}}},
		{"none wraps", tree.PBC{L: vec.V3{X: l, Y: l, Z: l}}},
		{"zero period", tree.PBC{X: true, Y: true, Z: true}},
	}
	sawPlusZero := false
	for _, c := range cases {
		mi := newMinImage(c.pbc)
		for _, d := range inputs {
			for _, in := range []vec.V3{{X: d, Y: d, Z: d}, {X: d, Y: -d, Z: d * 0.37}} {
				want := c.pbc.Wrap(in)
				got := vec.V3{X: mi.x.image(in.X), Y: mi.y.image(in.Y), Z: mi.z.image(in.Z)}
				for _, ax := range [][3]float64{{in.X, got.X, want.X}, {in.Y, got.Y, want.Y}, {in.Z, got.Z, want.Z}} {
					if math.Float64bits(ax[1]) != math.Float64bits(ax[2]) {
						t.Fatalf("%s: image of %v (%#x) is %v (%#x), Wrap gives %v (%#x)", c.name,
							ax[0], math.Float64bits(ax[0]), ax[1], math.Float64bits(ax[1]), ax[2], math.Float64bits(ax[2]))
					}
				}
			}
		}
		sawPlusZero = sawPlusZero || math.Signbit(c.pbc.Wrap(vec.V3{X: negZero}).X) != math.Signbit(negZero)
	}
	if !sawPlusZero {
		t.Fatal("no wrapping axis turned −0 into +0: the cases no longer test the zero")
	}
}

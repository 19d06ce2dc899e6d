// Package sfc implements space-filling-curve keys over 3D positions:
// Morton (Z-order) and Hilbert curves. ChaNGa decomposes its domain along a
// space-filling curve (paper Table 3), and the SPH-EXA mini-app lists SFC
// decomposition as one of its two domain-decomposition options (Table 4).
// Morton keys also index the linear octree in internal/tree.
package sfc

import (
	"math"

	"repro/internal/vec"
)

// Bits is the per-dimension key resolution. 21 bits per dimension fills a
// 63-bit key, the finest grid an int64/uint64 key can address in 3D.
const Bits = 21

// maxCoord is the largest quantized coordinate (2^Bits - 1).
const maxCoord = 1<<Bits - 1

// Key is a 63-bit space-filling-curve key.
type Key uint64

// Curve identifies a space-filling-curve family.
type Curve int

const (
	// Morton is the Z-order curve: bit-interleaved quantized coordinates.
	Morton Curve = iota
	// Hilbert is the Hilbert curve: better locality (no long jumps), at a
	// higher encoding cost.
	Hilbert
)

// Box is the axis-aligned cube that keys are quantized against. SFC keys are
// only comparable when generated against the same Box.
type Box struct {
	Lo   vec.V3
	Size float64 // edge length; the box is cubical so curve cells are too
}

// NewBox returns the smallest cube with a small safety margin that contains
// [lo, hi].
func NewBox(lo, hi vec.V3) Box {
	d := hi.Sub(lo)
	size := math.Max(d.X, math.Max(d.Y, d.Z))
	if size <= 0 {
		size = 1
	}
	// Margin keeps particles exactly on the upper boundary inside the grid.
	margin := size * 1e-9
	return Box{Lo: lo.Sub(vec.V3{X: margin, Y: margin, Z: margin}), Size: size * (1 + 4e-9)}
}

// Quantize maps p to integer grid coordinates in [0, 2^Bits).
func (b Box) Quantize(p vec.V3) (x, y, z uint32) {
	scale := float64(maxCoord+1) / b.Size
	q := func(v float64) uint32 {
		i := int64((v) * scale)
		if i < 0 {
			i = 0
		}
		if i > maxCoord {
			i = maxCoord
		}
		return uint32(i)
	}
	return q(p.X - b.Lo.X), q(p.Y - b.Lo.Y), q(p.Z - b.Lo.Z)
}

// --- Morton ------------------------------------------------------------------

// spread3 inserts two zero bits between each of the low 21 bits of x.
func spread3(x uint64) uint64 {
	x &= 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact3 is the inverse of spread3.
func compact3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x ^ x>>2) & 0x10c30c30c30c30c3
	x = (x ^ x>>4) & 0x100f00f00f00f00f
	x = (x ^ x>>8) & 0x1f0000ff0000ff
	x = (x ^ x>>16) & 0x1f00000000ffff
	x = (x ^ x>>32) & 0x1fffff
	return x
}

// MortonEncode interleaves quantized coordinates into a Morton key
// (x lowest).
func MortonEncode(x, y, z uint32) Key {
	return Key(spread3(uint64(x)) | spread3(uint64(y))<<1 | spread3(uint64(z))<<2)
}

// MortonDecode recovers the quantized coordinates from a Morton key.
func MortonDecode(k Key) (x, y, z uint32) {
	return uint32(compact3(uint64(k))), uint32(compact3(uint64(k) >> 1)), uint32(compact3(uint64(k) >> 2))
}

// --- Hilbert -----------------------------------------------------------------

// HilbertEncode maps quantized coordinates to a Hilbert-curve index using the
// classic Gray-code transpose algorithm (Skilling 2004; "Programming the
// Hilbert curve").
func HilbertEncode(x, y, z uint32) Key {
	X := [3]uint32{x, y, z}
	// Inverse undo excess work.
	for q := uint32(1) << (Bits - 1); q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < 3; i++ {
			if X[i]&q != 0 {
				X[0] ^= p // invert
			} else { // exchange
				t := (X[0] ^ X[i]) & p
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < 3; i++ {
		X[i] ^= X[i-1]
	}
	t := uint32(0)
	for q := uint32(1) << (Bits - 1); q > 1; q >>= 1 {
		if X[2]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < 3; i++ {
		X[i] ^= t
	}
	// Interleave: bit b of X[i] becomes bit (3*b + (2-i)) of the key, so the
	// most significant key bits come from the most significant coordinate
	// bits of X[0].
	var key uint64
	for b := Bits - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			key = key<<1 | uint64((X[i]>>uint(b))&1)
		}
	}
	return Key(key)
}

// HilbertDecode is the inverse of HilbertEncode.
func HilbertDecode(k Key) (x, y, z uint32) {
	var X [3]uint32
	key := uint64(k)
	for b := 0; b < Bits; b++ {
		for i := 2; i >= 0; i-- {
			X[i] = X[i]<<1 | uint32(key&1)
			key >>= 1
		}
	}
	// X[i] now holds the transposed bits; reverse them since we filled LSB
	// first from the low end of the key.
	for i := 0; i < 3; i++ {
		var r uint32
		for b := 0; b < Bits; b++ {
			r = r<<1 | (X[i]>>uint(b))&1
		}
		X[i] = r
	}
	// Gray decode.
	n := uint32(2) << (Bits - 1)
	t := X[2] >> 1
	for i := 2; i > 0; i-- {
		X[i] ^= X[i-1]
	}
	X[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != n; q <<= 1 {
		p := q - 1
		for i := 2; i >= 0; i-- {
			if X[i]&q != 0 {
				X[0] ^= p
			} else {
				t := (X[0] ^ X[i]) & p
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	return X[0], X[1], X[2]
}

// --- Position-level API ------------------------------------------------------

// Encode maps a position to its key on the given curve over box b.
func Encode(c Curve, b Box, p vec.V3) Key {
	x, y, z := b.Quantize(p)
	switch c {
	case Hilbert:
		return HilbertEncode(x, y, z)
	default:
		return MortonEncode(x, y, z)
	}
}

// Keys computes keys for all positions.
func Keys(c Curve, b Box, pos []vec.V3) []Key {
	out := make([]Key, len(pos))
	for i, p := range pos {
		out[i] = Encode(c, b, p)
	}
	return out
}

// Partition splits n key-sorted items into nparts contiguous ranges with
// near-equal weights. weights may be nil for unit weights. It returns
// nparts+1 boundaries: part p owns [bounds[p], bounds[p+1]).
//
// This is the SFC domain decomposition: sort by key, then cut the curve into
// equal-weight segments.
func Partition(n, nparts int, weights []float64) []int {
	if nparts <= 0 {
		panic("sfc: Partition with nparts <= 0")
	}
	bounds := make([]int, nparts+1)
	bounds[nparts] = n
	if n == 0 {
		return bounds
	}
	var total float64
	if weights == nil {
		total = float64(n)
	} else {
		for _, w := range weights {
			total += w
		}
	}
	target := total / float64(nparts)
	acc := 0.0
	p := 1
	for i := 0; i < n && p < nparts; i++ {
		if weights == nil {
			acc++
		} else {
			acc += weights[i]
		}
		for p < nparts && acc >= target*float64(p) {
			bounds[p] = i + 1
			p++
		}
	}
	for ; p < nparts; p++ {
		bounds[p] = n
	}
	return bounds
}

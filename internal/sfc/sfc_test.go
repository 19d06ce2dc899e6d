package sfc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestMortonRoundTrip(t *testing.T) {
	cases := [][3]uint32{
		{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{maxCoord, maxCoord, maxCoord},
		{123456, 654321, 999999},
	}
	for _, c := range cases {
		k := MortonEncode(c[0], c[1], c[2])
		x, y, z := MortonDecode(k)
		if x != c[0] || y != c[1] || z != c[2] {
			t.Errorf("Morton round trip %v -> %v %v %v", c, x, y, z)
		}
	}
}

func TestMortonKnownKeys(t *testing.T) {
	// Interleave order: x bit 0 is key bit 0, y bit 0 is key bit 1, z bit 0
	// is key bit 2.
	if k := MortonEncode(1, 0, 0); k != 1 {
		t.Errorf("MortonEncode(1,0,0) = %d, want 1", k)
	}
	if k := MortonEncode(0, 1, 0); k != 2 {
		t.Errorf("MortonEncode(0,1,0) = %d, want 2", k)
	}
	if k := MortonEncode(0, 0, 1); k != 4 {
		t.Errorf("MortonEncode(0,0,1) = %d, want 4", k)
	}
	if k := MortonEncode(3, 3, 3); k != 63 {
		t.Errorf("MortonEncode(3,3,3) = %d, want 63", k)
	}
}

func TestMortonRoundTripProperty(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= maxCoord
		y &= maxCoord
		z &= maxCoord
		a, b, c := MortonDecode(MortonEncode(x, y, z))
		return a == x && b == y && c == z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHilbertRoundTripProperty(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= maxCoord
		y &= maxCoord
		z &= maxCoord
		a, b, c := HilbertDecode(HilbertEncode(x, y, z))
		return a == x && b == y && c == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHilbertAdjacency verifies the defining Hilbert property: consecutive
// curve indices map to grid cells exactly one step apart (unit Manhattan
// distance). Morton does not have this property; Hilbert must.
func TestHilbertAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		x := rng.Uint32() & maxCoord
		y := rng.Uint32() & maxCoord
		z := rng.Uint32() & maxCoord
		k := HilbertEncode(x, y, z)
		if uint64(k) == (1<<(3*Bits))-1 {
			continue // last cell has no successor
		}
		nx, ny, nz := HilbertDecode(k + 1)
		d := absDiff(nx, x) + absDiff(ny, y) + absDiff(nz, z)
		if d != 1 {
			t.Fatalf("Hilbert neighbors %d and %d are %d apart: (%d,%d,%d) vs (%d,%d,%d)",
				k, k+1, d, x, y, z, nx, ny, nz)
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestHilbertCoversOrigin(t *testing.T) {
	if k := HilbertEncode(0, 0, 0); k != 0 {
		t.Errorf("HilbertEncode(0,0,0) = %d, want 0", k)
	}
	x, y, z := HilbertDecode(0)
	if x != 0 || y != 0 || z != 0 {
		t.Errorf("HilbertDecode(0) = %d,%d,%d", x, y, z)
	}
}

// TestHilbertSmallGridBijective enumerates an 8x8x8 corner subgrid and checks
// all keys are distinct (injectivity on a subset).
func TestHilbertKeysDistinct(t *testing.T) {
	seen := make(map[Key][3]uint32)
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			for z := uint32(0); z < 8; z++ {
				k := HilbertEncode(x, y, z)
				if prev, dup := seen[k]; dup {
					t.Fatalf("key collision: %v and %v both map to %d", prev, [3]uint32{x, y, z}, k)
				}
				seen[k] = [3]uint32{x, y, z}
			}
		}
	}
}

func TestBoxQuantize(t *testing.T) {
	b := NewBox(vec.V3{X: -1, Y: -1, Z: -1}, vec.V3{X: 1, Y: 1, Z: 1})
	x, y, z := b.Quantize(vec.V3{X: -1, Y: -1, Z: -1})
	if x != 0 || y != 0 || z != 0 {
		t.Errorf("lower corner quantized to %d,%d,%d", x, y, z)
	}
	x, y, z = b.Quantize(vec.V3{X: 1, Y: 1, Z: 1})
	if x != maxCoord || y != maxCoord || z != maxCoord {
		t.Errorf("upper corner quantized to %d,%d,%d, want max", x, y, z)
	}
	// Out-of-box points clamp rather than wrap.
	x, _, _ = b.Quantize(vec.V3{X: 99, Y: 0, Z: 0})
	if x != maxCoord {
		t.Errorf("overflow clamped to %d", x)
	}
	x, _, _ = b.Quantize(vec.V3{X: -99, Y: 0, Z: 0})
	if x != 0 {
		t.Errorf("underflow clamped to %d", x)
	}
}

func TestDegenerateBox(t *testing.T) {
	b := NewBox(vec.V3{X: 3, Y: 3, Z: 3}, vec.V3{X: 3, Y: 3, Z: 3})
	if b.Size <= 0 {
		t.Fatalf("degenerate box has size %g", b.Size)
	}
	x, y, z := b.Quantize(vec.V3{X: 3, Y: 3, Z: 3})
	_ = x
	_ = y
	_ = z // must not panic
}

func TestEncodeCurveDispatch(t *testing.T) {
	b := NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1})
	p := vec.V3{X: 0.3, Y: 0.7, Z: 0.1}
	if Encode(Morton, b, p) == Encode(Hilbert, b, p) {
		t.Log("Morton and Hilbert keys coincide for this point (possible but unlikely)")
	}
	ks := Keys(Hilbert, b, []vec.V3{p, p})
	if len(ks) != 2 || ks[0] != ks[1] {
		t.Error("Keys inconsistent for identical points")
	}
}

func TestCurveString(t *testing.T) {
	if Morton.String() != "morton" || Hilbert.String() != "hilbert" {
		t.Error("curve names wrong")
	}
	if Curve(9).String() == "" {
		t.Error("unknown curve has empty name")
	}
}

func TestPartitionUnitWeights(t *testing.T) {
	bounds := Partition(10, 2, nil)
	if bounds[0] != 0 || bounds[1] != 5 || bounds[2] != 10 {
		t.Fatalf("Partition = %v", bounds)
	}
	bounds = Partition(10, 3, nil)
	if bounds[0] != 0 || bounds[3] != 10 {
		t.Fatalf("Partition = %v", bounds)
	}
	// All ranges non-empty and ordered for n >> parts.
	for p := 0; p < 3; p++ {
		if bounds[p] >= bounds[p+1] {
			t.Fatalf("empty part %d in %v", p, bounds)
		}
	}
}

func TestPartitionWeighted(t *testing.T) {
	// One heavy item should land alone in the first part.
	w := []float64{100, 1, 1, 1}
	bounds := Partition(4, 2, w)
	if bounds[1] != 1 {
		t.Fatalf("weighted Partition = %v, want cut after heavy item", bounds)
	}
}

func TestPartitionEdges(t *testing.T) {
	bounds := Partition(0, 4, nil)
	for _, b := range bounds {
		if b != 0 {
			t.Fatalf("empty Partition = %v", bounds)
		}
	}
	bounds = Partition(2, 5, nil) // more parts than items
	if bounds[5] != 2 {
		t.Fatalf("over-partition = %v", bounds)
	}
	defer func() {
		if recover() == nil {
			t.Error("Partition(n,0) did not panic")
		}
	}()
	Partition(1, 0, nil)
}

// TestHilbertBetterLocalityThanMorton measures curve locality in the
// direction that matters for domain decomposition: walking consecutive curve
// indices, how far apart are successive cells? Hilbert steps are always unit
// distance (tested exhaustively above); Morton makes long jumps across
// octant boundaries, so its average step over the same index range must be
// strictly larger.
func TestHilbertBetterLocalityThanMorton(t *testing.T) {
	var mortonStep, hilbertStep float64
	const steps = 4096
	px, py, pz := MortonDecode(0)
	hx, hy, hz := HilbertDecode(0)
	for k := Key(1); k < steps; k++ {
		mx, my, mz := MortonDecode(k)
		mortonStep += float64(absDiff(mx, px) + absDiff(my, py) + absDiff(mz, pz))
		px, py, pz = mx, my, mz
		x, y, z := HilbertDecode(k)
		hilbertStep += float64(absDiff(hx, x) + absDiff(hy, y) + absDiff(hz, z))
		hx, hy, hz = x, y, z
	}
	if hilbertStep >= mortonStep {
		t.Errorf("Hilbert mean step (%g) not smaller than Morton (%g)", hilbertStep/steps, mortonStep/steps)
	}
	if hilbertStep != steps-1 {
		t.Errorf("Hilbert total step = %g over %d moves, want unit steps", hilbertStep, steps-1)
	}
}

func BenchmarkMortonEncode(b *testing.B) {
	var sink Key
	for i := 0; i < b.N; i++ {
		sink = MortonEncode(uint32(i)&maxCoord, uint32(i*7)&maxCoord, uint32(i*13)&maxCoord)
	}
	_ = sink
}

func BenchmarkHilbertEncode(b *testing.B) {
	var sink Key
	for i := 0; i < b.N; i++ {
		sink = HilbertEncode(uint32(i)&maxCoord, uint32(i*7)&maxCoord, uint32(i*13)&maxCoord)
	}
	_ = sink
}

// String implements fmt.Stringer.
func (c Curve) String() string {
	switch c {
	case Morton:
		return "morton"
	case Hilbert:
		return "hilbert"
	}
	return fmt.Sprintf("curve(%d)", int(c))
}

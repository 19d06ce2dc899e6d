package tree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sfc"
	"repro/internal/vec"
)

func randomPositions(n int, rng *rand.Rand) []vec.V3 {
	pos := make([]vec.V3, n)
	for i := range pos {
		pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	return pos
}

func hitSet(hits []Hit) map[int32]bool {
	m := make(map[int32]bool, len(hits))
	for _, h := range hits {
		m[h.Idx] = true
	}
	return m
}

func TestBuildCoversAllParticles(t *testing.T) {
	pos := randomPositions(1000, rand.New(rand.NewSource(1)))
	tr := Build(pos, Options{LeafCap: 8})
	if len(tr.Index) != 1000 {
		t.Fatalf("Index length %d", len(tr.Index))
	}
	seen := make(map[int32]bool)
	for _, i := range tr.Index {
		if seen[i] {
			t.Fatalf("particle %d appears twice in Index", i)
		}
		seen[i] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("Index covers %d particles", len(seen))
	}
	root := tr.Nodes[0]
	if root.Count != 1000 || root.Start != 0 {
		t.Fatalf("root = %+v", root)
	}
}

func TestLeafCapRespected(t *testing.T) {
	pos := randomPositions(2000, rand.New(rand.NewSource(2)))
	tr := Build(pos, Options{LeafCap: 16})
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		if nd.IsLeaf() && nd.Count > 16 {
			t.Fatalf("leaf %d holds %d > 16 particles", i, nd.Count)
		}
	}
}

func TestChildrenPartitionParent(t *testing.T) {
	pos := randomPositions(3000, rand.New(rand.NewSource(3)))
	tr := Build(pos, Options{LeafCap: 10})
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		if nd.IsLeaf() {
			continue
		}
		var sum int32
		pos := nd.Start
		for c := nd.FirstChild; c < nd.FirstChild+8; c++ {
			ch := &tr.Nodes[c]
			if ch.Start != pos {
				t.Fatalf("node %d child %d starts at %d, want %d", i, c, ch.Start, pos)
			}
			pos += ch.Count
			sum += ch.Count
			if ch.Half*2 != nd.Half {
				t.Fatalf("child half %g, parent half %g", ch.Half, nd.Half)
			}
		}
		if sum != nd.Count {
			t.Fatalf("node %d children cover %d of %d particles", i, sum, nd.Count)
		}
	}
}

func TestParticlesInsideNodeCubes(t *testing.T) {
	pos := randomPositions(500, rand.New(rand.NewSource(4)))
	tr := Build(pos, Options{LeafCap: 4})
	// Every particle in a leaf must lie inside (or on) the leaf cube,
	// within quantization slack of one cell.
	slack := tr.Box.Size / (1 << 21) * 2
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		if !nd.IsLeaf() {
			continue
		}
		for k := nd.Start; k < nd.Start+nd.Count; k++ {
			p := pos[tr.Index[k]]
			d := p.Sub(nd.Center)
			if math.Abs(d.X) > nd.Half+slack || math.Abs(d.Y) > nd.Half+slack || math.Abs(d.Z) > nd.Half+slack {
				t.Fatalf("particle %v outside leaf cube center=%v half=%g", p, nd.Center, nd.Half)
			}
		}
	}
}

func TestBallSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pos := randomPositions(800, rng)
	tr := Build(pos, Options{LeafCap: 8})
	for trial := 0; trial < 50; trial++ {
		c := vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		r := 0.02 + rng.Float64()*0.2
		got := hitSet(tr.BallSearch(c, r, nil))
		want := hitSet(BruteForceBallSearch(pos, PBC{}, c, r, nil))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d hits, want %d", trial, len(got), len(want))
		}
		for idx := range want {
			if !got[idx] {
				t.Fatalf("trial %d: missing neighbor %d", trial, idx)
			}
		}
	}
}

func TestBallSearchSelfInclusion(t *testing.T) {
	pos := randomPositions(100, rand.New(rand.NewSource(6)))
	tr := Build(pos, Options{})
	hits := tr.BallSearch(pos[17], 0.05, nil)
	found := false
	for _, h := range hits {
		if h.Idx == 17 && h.Dist2 == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("query particle not found at distance 0")
	}
}

func TestBallSearchPeriodicZ(t *testing.T) {
	// Two particles near opposite Z faces of a unit box: with PBC in Z they
	// are close; without, far.
	pos := []vec.V3{
		{X: 0.5, Y: 0.5, Z: 0.01},
		{X: 0.5, Y: 0.5, Z: 0.99},
	}
	box := sfc.Box{Lo: vec.V3{}, Size: 1}
	pbc := PBC{Z: true, L: vec.V3{Z: 1}}
	tr := Build(pos, Options{PBC: pbc, Box: box})
	hits := tr.BallSearch(pos[0], 0.05, nil)
	if len(hits) != 2 {
		t.Fatalf("periodic search found %d hits, want 2", len(hits))
	}
	for _, h := range hits {
		if h.Idx == 1 {
			// Minimum-image distance must be 0.02, not 0.98.
			if math.Abs(math.Sqrt(h.Dist2)-0.02) > 1e-12 {
				t.Fatalf("Dist = %g, want 0.02", math.Sqrt(h.Dist2))
			}
		}
	}
	// Without PBC the far particle is not a neighbor.
	tr2 := Build(pos, Options{Box: box})
	hits2 := tr2.BallSearch(pos[0], 0.05, nil)
	if len(hits2) != 1 {
		t.Fatalf("non-periodic search found %d hits, want 1", len(hits2))
	}
}

// TestBallSearchPeriodicMatchesBruteForce: under full and z-only
// periodicity the hits are the brute-force hits as a multiset, each particle
// once, up to radii of 0.7 L, where two images of the center reach the same
// particle.
func TestBallSearchPeriodicMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pos := randomPositions(400, rng)
	box := sfc.Box{Lo: vec.V3{}, Size: 1}
	for _, pbc := range []PBC{
		{X: true, Y: true, Z: true, L: vec.V3{X: 1, Y: 1, Z: 1}},
		{Z: true, L: vec.V3{Z: 1}},
	} {
		tr := Build(pos, Options{PBC: pbc, Box: box, LeafCap: 8})
		for trial := 0; trial < 60; trial++ {
			c := pos[rng.Intn(len(pos))]
			r := 0.05 + rng.Float64()*0.1
			if trial%2 == 1 {
				r = 0.7 * rng.Float64()
			}
			got := sortedIdx(tr.BallSearch(c, r, nil))
			want := sortedIdx(BruteForceBallSearch(pos, pbc, c, r, nil))
			if !slices.Equal(got, want) {
				t.Fatalf("%+v, trial %d, r = %g: %d hits, brute force %d", pbc, trial, r, len(got), len(want))
			}
		}
	}
}

// TestWrapEqualsDivisionForm: the minimum image without the division agrees
// bit for bit with d - L*Round(d/L), the sign of a zero included, on random
// displacements and on the edges of the shortcut.
func TestWrapEqualsDivisionForm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, l := range []float64{1, 2, 0.3, 1e-9, 7e12, 1 + 0x1p-52} {
		ds := []float64{0, math.Copysign(0, -1), 0.49 * l, -0.49 * l, 0.5 * l, -0.5 * l, l, -l,
			math.Nextafter(0.49*l, 0), math.Nextafter(-0.49*l, 0), math.Nextafter(0.5*l, 0), math.Nextafter(-0.5*l, 0),
			math.Nextafter(0.5*l, 1), 1.5 * l,
			1e300, -1e300, 1e17 * l, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
		for range 20000 {
			ds = append(ds, (rng.Float64()-0.5)*l*math.Pow(2, float64(rng.Intn(12)-4)))
		}
		for _, d := range ds {
			want := d - l*math.Round(d/l)
			got := wrap(d, l)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("wrap(%g, %g) = %g (%016x), division form %g (%016x)",
					d, l, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestPBCWrap(t *testing.T) {
	pbc := PBC{Z: true, L: vec.V3{Z: 2}}
	d := pbc.Wrap(vec.V3{Z: 1.9})
	if math.Abs(d.Z - -0.1) > 1e-14 {
		t.Fatalf("Wrap Z = %g, want -0.1", d.Z)
	}
	d = pbc.Wrap(vec.V3{X: 5, Z: 0.3})
	if d.X != 5 || math.Abs(d.Z-0.3) > 1e-14 {
		t.Fatalf("Wrap = %v", d)
	}
	if !(PBC{}).None() {
		t.Error("empty PBC not None")
	}
	if (PBC{Y: true}).None() {
		t.Error("Y-periodic PBC reported None")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	tr := Build(nil, Options{})
	if got := tr.BallSearch(vec.V3{}, 1, nil); len(got) != 0 {
		t.Fatalf("empty tree returned %d hits", len(got))
	}
	one := []vec.V3{{X: 0.5, Y: 0.5, Z: 0.5}}
	tr = Build(one, Options{})
	if got := tr.BallSearch(one[0], 0.1, nil); len(got) != 1 {
		t.Fatalf("single-particle tree returned %d hits", len(got))
	}
	if tr.MaxDepth() != 0 {
		t.Fatalf("single particle depth %d", tr.MaxDepth())
	}
}

func TestDuplicatePositions(t *testing.T) {
	// 100 particles at the same point must not recurse forever.
	pos := make([]vec.V3, 100)
	for i := range pos {
		pos[i] = vec.V3{X: 0.25, Y: 0.5, Z: 0.75}
	}
	tr := Build(pos, Options{LeafCap: 8})
	hits := tr.BallSearch(pos[0], 0.01, nil)
	if len(hits) != 100 {
		t.Fatalf("found %d of 100 coincident particles", len(hits))
	}
}

func TestClusteredDistribution(t *testing.T) {
	// Evrard-like 1/r density clustering: verify searches stay exact.
	rng := rand.New(rand.NewSource(8))
	pos := make([]vec.V3, 500)
	for i := range pos {
		r := rng.Float64() * rng.Float64() // clustered toward 0
		th := math.Acos(2*rng.Float64() - 1)
		ph := 2 * math.Pi * rng.Float64()
		pos[i] = vec.V3{
			X: r * math.Sin(th) * math.Cos(ph),
			Y: r * math.Sin(th) * math.Sin(ph),
			Z: r * math.Cos(th),
		}
	}
	tr := Build(pos, Options{LeafCap: 8})
	for trial := 0; trial < 20; trial++ {
		c := pos[rng.Intn(len(pos))]
		r := 0.01 + rng.Float64()*0.3
		got := tr.BallSearch(c, r, nil)
		want := BruteForceBallSearch(pos, PBC{}, c, r, nil)
		if len(got) != len(want) {
			t.Fatalf("clustered trial %d: %d hits, want %d", trial, len(got), len(want))
		}
	}
}

func TestMaxDepthAndLeaves(t *testing.T) {
	pos := randomPositions(4096, rand.New(rand.NewSource(9)))
	tr := Build(pos, Options{LeafCap: 8})
	if d := tr.MaxDepth(); d < 2 || d > 21 {
		t.Fatalf("MaxDepth = %d", d)
	}
	if l := tr.NLeaves(); l < 4096/8 {
		t.Fatalf("NLeaves = %d, too few for leafcap 8", l)
	}
}

// Property: tree search hit sequences — order included — are independent
// of leaf capacity and worker count, open and fully periodic. Within each
// periodic image the walk visits leaves in child order, so hits come in
// ascending sorted-key position (the key sort is stable) however the keys
// are cut into leaves; a search rewrite that keeps this keeps every digest.
func TestSearchInvariantToBuildParams(t *testing.T) {
	for name, opt := range map[string]Options{
		"open":     {},
		"periodic": {PBC: PBC{X: true, Y: true, Z: true, L: vec.V3{X: 1, Y: 1, Z: 1}}, Box: sfc.Box{Size: 1}},
	} {
		pos := randomPositions(300, rand.New(rand.NewSource(10)))
		root := opt
		root.LeafCap = 1000 // root-only tree
		ref := Build(pos, root)
		f := func(cap8 uint8, seed int64) bool {
			o := opt
			o.LeafCap, o.Workers = int(cap8%60)+1, int(uint64(seed)%4)+1
			c := pos[int(uint64(seed)%uint64(len(pos)))]
			return slices.Equal(Build(pos, o).BallSearch(c, 0.15, nil), ref.BallSearch(c, 0.15, nil))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestHitsCompleteness: a search reports each particle at most once (the
// hit order itself is pinned by TestSearchInvariantToBuildParams).
func TestHitsCompleteness(t *testing.T) {
	pos := randomPositions(200, rand.New(rand.NewSource(11)))
	tr := Build(pos, Options{LeafCap: 4})
	hits := tr.BallSearch(pos[0], 0.3, nil)
	sort.Slice(hits, func(i, j int) bool { return hits[i].Idx < hits[j].Idx })
	for i := 1; i < len(hits); i++ {
		if hits[i].Idx == hits[i-1].Idx {
			t.Fatalf("duplicate hit for particle %d", hits[i].Idx)
		}
	}
}

// TestBallSearchProperties checks, on random clouds under every boundary
// kind, the two properties sph's neighbor search is built on: BallSearch
// finds exactly the brute-force hits, and the hits of a wider walk filtered
// by distance are the hits of the narrower walk in the same order. The clouds
// include coincident points, points on the faces of the box and — along open
// axes, where a forced box does not confine them — points outside it.
func TestBallSearchProperties(t *testing.T) {
	box := sfc.Box{Lo: vec.V3{}, Size: 1}
	one := vec.V3{X: 1, Y: 1, Z: 1}
	for name, pbc := range map[string]PBC{
		"open":       {},
		"z-periodic": {Z: true, L: one},
		"periodic":   {X: true, Y: true, Z: true, L: one},
	} {
		rng := rand.New(rand.NewSource(21))
		pos := propertyCloud(pbc, rng)
		for _, opt := range []Options{{PBC: pbc, Box: box, LeafCap: 4}, {PBC: pbc, Box: box}} {
			tr := Build(pos, opt)
			for trial := 0; trial < 200; trial++ {
				c := pos[rng.Intn(len(pos))]
				if trial%4 == 0 {
					c = vec.V3{X: 1.6*rng.Float64() - 0.3, Y: 1.6*rng.Float64() - 0.3, Z: 1.6*rng.Float64() - 0.3}
					c = pbc.Wrap(c.Sub(vec.V3{X: 0.5, Y: 0.5, Z: 0.5})).Add(vec.V3{X: 0.5, Y: 0.5, Z: 0.5})
				}
				r := 0.02 + 0.28*rng.Float64()
				narrow := tr.BallSearch(c, r, nil)

				var filtered []Hit
				for _, h := range tr.BallSearch(c, 1.25*r, nil) {
					if h.Dist2 <= r*r {
						filtered = append(filtered, h)
					}
				}
				if !slices.Equal(filtered, narrow) {
					t.Fatalf("%s: walk at 1.25r filtered to r=%g around %v gives %v, walk at r gives %v", name, r, c, filtered, narrow)
				}

				got := sortedIdx(narrow)
				want := sortedIdx(BruteForceBallSearch(pos, pbc, c, r, nil))
				if !slices.Equal(got, want) {
					t.Fatalf("%s: r=%g around %v: tree finds %v, brute force %v", name, r, c, got, want)
				}
			}
		}
	}
}

// propertyCloud is 600 random points in the unit cube, 60 of them then
// moved onto a face, onto another point or — along pbc's open axes — up to
// 0.3 outside the cube.
func propertyCloud(pbc PBC, rng *rand.Rand) []vec.V3 {
	pos := randomPositions(600, rng)
	for i := 0; i < 60; i++ {
		p := &pos[rng.Intn(len(pos))]
		axis := rng.Intn(3)
		coord := [3]*float64{&p.X, &p.Y, &p.Z}[axis]
		face := float64(rng.Intn(2))
		switch i % 3 {
		case 0: // on a face
			*coord = face
		case 1: // coincident with another point
			*p = pos[rng.Intn(len(pos))]
		case 2: // outside the box along an open axis
			if periodic := [3]bool{pbc.X, pbc.Y, pbc.Z}; !periodic[axis] {
				*coord = face + (2*face-1)*0.3*rng.Float64()
			}
		}
	}
	return pos
}

func sortedIdx(hits []Hit) []int32 {
	idx := make([]int32, len(hits))
	for i, h := range hits {
		idx[i] = h.Idx
	}
	slices.Sort(idx)
	return idx
}

func BenchmarkBuild100k(b *testing.B) {
	pos := randomPositions(100000, rand.New(rand.NewSource(12)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pos, Options{})
	}
}

func BenchmarkBallSearch100k(b *testing.B) {
	pos := randomPositions(100000, rand.New(rand.NewSource(13)))
	tr := Build(pos, Options{})
	buf := make([]Hit, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.BallSearch(pos[i%len(pos)], 0.05, buf[:0])
	}
}

// Package tree implements the linear octree that underpins both SPH
// neighbor discovery and tree-based self-gravity (steps 1, 2 and 4 of the
// paper's Algorithm 1). All three parent codes identify neighbors via a tree
// walk (paper Table 1); this implementation follows the Barnes-Hut [4]
// hierarchical decomposition, linearized over Morton keys.
//
// Construction sorts the particle Morton keys (parallel radix sort) and then
// splits key ranges top-down until leaves hold at most LeafCap particles.
// Because the key order equals the octant order, every node is a contiguous
// range of the sorted index array — no per-node particle lists are needed.
package tree

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/par"
	"repro/internal/sfc"
	"repro/internal/vec"
)

// DefaultLeafCap is the default maximum particle count in a leaf. Around
// 16-64 balances walk depth against per-leaf scan cost for ~100-neighbor SPH
// configurations.
const DefaultLeafCap = 32

// PBC describes periodic boundary conditions: which axes wrap and the period
// length per axis. The rotating square patch test wraps Z only (paper §5.1:
// "applying periodic boundary conditions in the Z direction").
type PBC struct {
	X, Y, Z bool
	L       vec.V3 // period lengths for the wrapping axes
}

// None reports whether no axis is periodic.
func (p PBC) None() bool { return !p.X && !p.Y && !p.Z }

// Wrap returns the minimum-image displacement for d = a - b.
func (p PBC) Wrap(d vec.V3) vec.V3 {
	if p.X && p.L.X > 0 {
		d.X = wrap(d.X, p.L.X)
	}
	if p.Y && p.L.Y > 0 {
		d.Y = wrap(d.Y, p.L.Y)
	}
	if p.Z && p.L.Z > 0 {
		d.Z = wrap(d.Z, p.L.Z)
	}
	return d
}

// wrap is d - l*Round(d/l), bit for bit, without the division when |d| is
// well inside half a period, where the rounding is ±0 and the subtraction
// leaves d but turns -0 into +0, as d + 0 does.
func wrap(d, l float64) float64 {
	if math.Abs(d) < 0.5*l {
		return d + 0
	}
	return d - l*math.Round(d/l)
}

// Node is one octree cell. Particles of the node are
// Index[Start : Start+Count]. FirstChild is the index of the first of eight
// contiguous children, or -1 for a leaf (children with Count == 0 are still
// materialized to keep the 8-block layout).
type Node struct {
	Center     vec.V3
	Half       float64 // half edge length of the cubic cell
	Start      int32
	Count      int32
	FirstChild int32
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.FirstChild < 0 }

// Tree is a linear octree over a set of positions. The tree borrows the
// position slice; it must not be mutated while the tree is in use.
type Tree struct {
	Nodes []Node
	Index []int32 // particle indices in Morton order
	Box   sfc.Box
	pos   []vec.V3
	pbc   PBC
	keys  []sfc.Key // in Morton order
	spos  []vec.V3  // spos[k] = pos[Index[k]]
	boxes []cellBox // boxes[i] bounds the particles of Nodes[i]

	// Scratch kept by Rebuild: the keys in particle order and the sort.
	raw    []sfc.Key
	sorter sfc.Sorter
}

// Options configures tree construction.
type Options struct {
	LeafCap int // max particles per leaf; DefaultLeafCap when 0
	Workers int // parallelism for key sort and node builds; GOMAXPROCS when 0
	PBC     PBC
	// Box forces the quantization cube, needed when PBC wraps an axis (the
	// cube must equal the periodic domain there). When Size == 0 the
	// bounding cube of the positions is used.
	Box sfc.Box
}

// Build constructs an octree over pos.
func Build(pos []vec.V3, opt Options) *Tree {
	t := new(Tree)
	t.Rebuild(pos, opt)
	return t
}

// Rebuild makes t the octree over pos, as Build would, in the capacity of
// t's arrays: a tree rebuilt every step allocates only when it outgrows
// every earlier build.
func (t *Tree) Rebuild(pos []vec.V3, opt Options) {
	leafCap := opt.LeafCap
	if leafCap <= 0 {
		leafCap = DefaultLeafCap
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	box := opt.Box
	if box.Size == 0 {
		lo, hi := bounds(pos)
		box = sfc.NewBox(lo, hi)
	}

	t.Box, t.pos, t.pbc = box, pos, opt.PBC
	n := len(pos)
	t.raw = slices.Grow(t.raw[:0], n)[:n]

	// Parallel key computation.
	par.Range(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t.raw[i] = sfc.Encode(sfc.Morton, box, pos[i])
		}
	})

	perm := t.sorter.Sort(t.raw, workers)
	t.Index = slices.Grow(t.Index[:0], n)[:n]
	t.keys = slices.Grow(t.keys[:0], n)[:n]
	t.spos = slices.Grow(t.spos[:0], n)[:n]
	for i, p := range perm {
		t.Index[i] = int32(p)
		t.keys[i] = t.raw[p]
		t.spos[i] = pos[p]
	}

	// Root cell: the quantization cube.
	half := box.Size / 2
	root := Node{
		Center:     box.Lo.Add(vec.V3{X: half, Y: half, Z: half}),
		Half:       half,
		Start:      0,
		Count:      int32(n),
		FirstChild: -1,
	}
	t.Nodes = append(t.Nodes[:0], root)
	t.split(0, 3*(sfc.Bits-1), leafCap)
	t.fitBoxes()
}

// cellBox is an axis-aligned box, lo > hi when it holds nothing.
type cellBox struct{ lo, hi vec.V3 }

// fitBoxes fits each node's box around its particles: leaves from their
// positions, the rest from their children, which follow them in Nodes.
func (t *Tree) fitBoxes() {
	t.boxes = slices.Grow(t.boxes[:0], len(t.Nodes))[:len(t.Nodes)]
	inf := math.Inf(1)
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		nd := &t.Nodes[i]
		b := cellBox{lo: vec.V3{X: inf, Y: inf, Z: inf}, hi: vec.V3{X: -inf, Y: -inf, Z: -inf}}
		if nd.IsLeaf() {
			for _, p := range t.spos[nd.Start : nd.Start+nd.Count] {
				b.grow(p, p)
			}
		} else {
			for _, c := range t.boxes[nd.FirstChild : nd.FirstChild+8] {
				b.grow(c.lo, c.hi)
			}
		}
		t.boxes[i] = b
	}
}

// grow extends b over [lo, hi]; a NaN makes it NaN, which every search opens.
func (b *cellBox) grow(lo, hi vec.V3) {
	b.lo = vec.V3{X: min(b.lo.X, lo.X), Y: min(b.lo.Y, lo.Y), Z: min(b.lo.Z, lo.Z)}
	b.hi = vec.V3{X: max(b.hi.X, hi.X), Y: max(b.hi.Y, hi.Y), Z: max(b.hi.Z, hi.Z)}
}

// dist2 is the squared distance from p to the box, summed as Norm2 sums:
// rounding is monotone, so it never exceeds the Dist2 of a particle inside.
func (b *cellBox) dist2(p vec.V3) float64 {
	dx := max(b.lo.X-p.X, p.X-b.hi.X, 0)
	dy := max(b.lo.Y-p.Y, p.Y-b.hi.Y, 0)
	dz := max(b.lo.Z-p.Z, p.Z-b.hi.Z, 0)
	return dx*dx + dy*dy + dz*dz
}

// split recursively subdivides node ni. shift is the bit position of the
// current octant digit in the Morton key (3 bits per level).
func (t *Tree) split(ni int, shift int, leafCap int) {
	nd := t.Nodes[ni]
	if int(nd.Count) <= leafCap || shift < 0 {
		return
	}
	first := int32(len(t.Nodes))
	t.Nodes[ni].FirstChild = first

	// Partition the node's key range into eight octant sub-ranges by binary
	// search on the octant digit.
	start := nd.Start
	end := nd.Start + nd.Count
	quarter := nd.Half / 2
	pos := start
	for oct := 0; oct < 8; oct++ {
		// Find the end of this octant's run.
		runEnd := pos
		for runEnd < end && int((t.keys[runEnd]>>uint(shift))&7) == oct {
			runEnd++
		}
		child := Node{
			Center: vec.V3{
				X: nd.Center.X + quarter*octSign(oct, 0),
				Y: nd.Center.Y + quarter*octSign(oct, 1),
				Z: nd.Center.Z + quarter*octSign(oct, 2),
			},
			Half:       quarter,
			Start:      pos,
			Count:      runEnd - pos,
			FirstChild: -1,
		}
		t.Nodes = append(t.Nodes, child)
		pos = runEnd
	}
	if pos != end {
		panic(fmt.Sprintf("tree: octant partition lost particles: %d != %d", pos, end))
	}
	for oct := int32(0); oct < 8; oct++ {
		t.split(int(first+oct), shift-3, leafCap)
	}
}

// octSign returns -1 or +1 for the octant's position along axis (0=x,1=y,2=z).
// Morton digit bit 0 is x, bit 1 is y, bit 2 is z.
func octSign(oct, axis int) float64 {
	if oct>>uint(axis)&1 == 1 {
		return 1
	}
	return -1
}

func bounds(pos []vec.V3) (lo, hi vec.V3) {
	if len(pos) == 0 {
		return vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1}
	}
	lo, hi = pos[0], pos[0]
	for _, p := range pos[1:] {
		lo = lo.Min(p)
		hi = hi.Max(p)
	}
	return lo, hi
}

// Hit is one neighbor-search result: the particle index and its squared
// distance from the periodic image of the query center that was searched.
type Hit struct {
	Idx   int32
	Dist2 float64
}

// BallSearch appends to out every particle within radius r of center
// (including a particle exactly at center, i.e. the query particle itself
// when center is its position) and returns the extended slice. Periodic
// images are handled per the tree's PBC. From half a period on, two images
// can reach one particle; only the hit through the nearest (the first
// searched of equals) is kept.
//
// Hits come in a fixed order (image by image, each in tree-walk order), and
// a hit's Dist2 does not depend on r: the hits of a search at r, filtered by
// Dist2 <= s*s for s <= r, are exactly the hits of a search at s, in the same
// order. sph's smoothing-length iteration relies on this to walk once.
func (t *Tree) BallSearch(center vec.V3, r float64, out []Hit) []Hit {
	if len(t.Nodes) == 0 {
		return out
	}
	var stack walkStack
	if t.pbc.None() {
		return t.search(&stack, center, r*r, out)
	}
	// Enumerate periodic images whose shifted ball can intersect the domain:
	// the zero offset always, and along each periodic axis a +-L image when
	// the ball reaches that side of the domain.
	var xs, ys, zs [3]float64
	nx := axisOffsets(&xs, t.pbc.X, center.X, r, t.Box.Lo.X, t.pbc.L.X)
	ny := axisOffsets(&ys, t.pbc.Y, center.Y, r, t.Box.Lo.Y, t.pbc.L.Y)
	nz := axisOffsets(&zs, t.pbc.Z, center.Z, r, t.Box.Lo.Z, t.pbc.L.Z)
	halfPeriod := (nx > 1 && 2*r >= t.pbc.L.X) || (ny > 1 && 2*r >= t.pbc.L.Y) || (nz > 1 && 2*r >= t.pbc.L.Z)
	for a, dx := range xs[:nx] {
		for b, dy := range ys[:ny] {
			for c, dz := range zs[:nz] {
				from := len(out)
				out = t.search(&stack, center.Add(vec.V3{X: dx, Y: dy, Z: dz}), r*r, out)
				if halfPeriod {
					kept := slices.DeleteFunc(out[from:], func(h Hit) bool {
						p := t.pos[h.Idx]
						return !nearest(xs[:nx], a, center.X, p.X) || !nearest(ys[:ny], b, center.Y, p.Y) || !nearest(zs[:nz], c, center.Z, p.Z)
					})
					out = out[:from+len(kept)]
				}
			}
		}
	}
	return out
}

// nearest reports whether shifting c by offs[k] brings it nearest to p, as
// the search computes the offset, and earlier than any equally near shift.
func nearest(offs []float64, k int, c, p float64) bool {
	d := math.Abs(c + offs[k] - p)
	for j, o := range offs {
		if dj := math.Abs(c + o - p); dj < d || dj == d && j < k {
			return false
		}
	}
	return true
}

// axisOffsets fills offs with the image shifts to search along one axis and
// returns how many there are.
func axisOffsets(offs *[3]float64, periodic bool, c, r, lo, L float64) int {
	n := 1 // offs[0] is the zero shift
	if !periodic || L <= 0 {
		return n
	}
	if c-r < lo {
		offs[n] = L
		n++
	}
	if c+r > lo+L {
		offs[n] = -L
		n++
	}
	return n
}

// walkStack holds the pending nodes of a depth-first walk: each of the at
// most sfc.Bits levels below the root pops one node and pushes up to eight.
type walkStack [7*sfc.Bits + 1]int32

// search appends the particles within sqrt(r2) of center (already shifted to
// the image being searched), walking the tree depth-first in child order.
//
// A child is entered unless its box, which bounds its particles wherever
// they are, is farther than the radius. Neither loop branches on the data:
// a child or a candidate is always written, and kept by advancing the stack
// pointer or the length of out.
func (t *Tree) search(stack *walkStack, center vec.V3, r2 float64, out []Hit) []Hit {
	stack[0] = 0
	for sp := 1; sp > 0; {
		sp--
		nd := &t.Nodes[stack[sp]]
		if nd.IsLeaf() {
			n, idx := len(out), t.Index[nd.Start:nd.Start+nd.Count]
			out = slices.Grow(out, len(idx))[:n+len(idx)]
			for k, p := range t.spos[nd.Start : nd.Start+nd.Count] {
				d2 := center.Sub(p).Norm2()
				out[n] = Hit{Idx: idx[k], Dist2: d2}
				if d2 <= r2 {
					n++
				}
			}
			out = out[:n]
			continue
		}
		// Push the children that the ball touches, last first, so they pop
		// in child order. An empty child's box is infinitely far.
		for c := nd.FirstChild + 7; c >= nd.FirstChild; c-- {
			stack[sp] = c
			open := 1
			if t.boxes[c].dist2(center) > r2 {
				open = 0
			}
			sp += open
		}
	}
	return out
}

// NLeaves returns the number of leaf nodes.
func (t *Tree) NLeaves() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			n++
		}
	}
	return n
}

// MaxDepth returns the maximum node depth (root = 0).
func (t *Tree) MaxDepth() int {
	var walk func(ni, d int) int
	walk = func(ni, d int) int {
		nd := &t.Nodes[ni]
		if nd.IsLeaf() {
			return d + 0
		}
		max := d
		for c := nd.FirstChild; c < nd.FirstChild+8; c++ {
			if got := walk(int(c), d+1); got > max {
				max = got
			}
		}
		return max
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return walk(0, 0)
}

// BruteForceBallSearch is the O(N) reference used in tests and in the
// neighbor-search ablation benchmark.
func BruteForceBallSearch(pos []vec.V3, pbc PBC, center vec.V3, r float64, out []Hit) []Hit {
	r2 := r * r
	for j := range pos {
		if d2 := pbc.Wrap(center.Sub(pos[j])).Norm2(); d2 <= r2 {
			out = append(out, Hit{Idx: int32(j), Dist2: d2})
		}
	}
	return out
}

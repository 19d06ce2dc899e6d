package sph

import (
	"math"
	"slices"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/tree"
)

// NeighborList stores, for every owned particle, the indices of its
// neighbors within kernel support (2h), in compressed-sparse-row layout.
// The query particle itself is excluded.
type NeighborList struct {
	Offsets []int32 // len nLocal+1
	Nbr     []int32
	// Walks is the number of tree walks the search that built the list made,
	// over all particles and smoothing-length passes.
	Walks int64
}

// Of returns the neighbor indices of particle i.
func (nl *NeighborList) Of(i int) []int32 {
	return nl.Nbr[nl.Offsets[i]:nl.Offsets[i+1]]
}

// Workspace is the scratch of the step kernels, kept from one step to the
// next. The rule is keep capacity, not contents: every buffer is refilled
// from scratch each step, so a step allocates only when it outgrows every
// step before it. The package's functions each run on a throwaway Workspace;
// a driver that steps keeps one and calls its methods. A Workspace serves
// one caller at a time, and what its methods return lives in it until the
// next call.
type Workspace struct {
	tree    tree.Tree
	nl      NeighborList
	hits    [][]tree.Hit // one walk buffer per worker
	regions []region
	cbrt    []float64 // cbrt(NNeighbors/c) at neighbour count c
	x       []float64 // the generalized volume elements' X
	stats   []ForceStats

	// The force loop's per-particle factors, owned and ghost: P/rho^2, the
	// norm of the particle's gradient surrogate (sigma/h^3 for IAD,
	// sigma/h^4 for the kernel derivative) and whether it is IAD.
	pr, norm []float64
	iad      []bool
}

// NeighborEntries returns the length of the last neighbour list built in
// ws and the capacity its buffer keeps.
func (ws *Workspace) NeighborEntries() (used, held int) {
	return len(ws.nl.Nbr), cap(ws.nl.Nbr)
}

// BuildTree constructs the octree for the particle set under params (step 1
// of Algorithm 1).
func BuildTree(ps *part.Set, p *Params) *tree.Tree {
	return new(Workspace).BuildTree(ps, p)
}

// BuildTree is BuildTree in the workspace's tree.
func (ws *Workspace) BuildTree(ps *part.Set, p *Params) *tree.Tree {
	ws.tree.Rebuild(ps.Pos, tree.Options{
		LeafCap: p.LeafCap,
		Workers: p.Workers,
		PBC:     p.PBC,
		Box:     p.Box,
	})
	return &ws.tree
}

// UpdateSmoothingLengths iterates each owned particle's h until its neighbor
// count is within HTolerance of NNeighbors (step 2 of Algorithm 1: "find
// neighbors and smoothing length"; the paper notes the simulation targets a
// given neighbor number, which determines h). Returns the neighbor list at
// the final smoothing lengths.
func UpdateSmoothingLengths(ps *part.Set, tr *tree.Tree, p *Params) *NeighborList {
	return new(Workspace).UpdateSmoothingLengths(ps, tr, p)
}

// UpdateSmoothingLengths is UpdateSmoothingLengths in the workspace's list.
func (ws *Workspace) UpdateSmoothingLengths(ps *part.Set, tr *tree.Tree, p *Params) *NeighborList {
	return ws.findNeighbors(ps, tr, p, p.HMaxIter)
}

// walkMargin is how far beyond the support radius a particle's tree walk
// reaches while its h may still change. A pass of the h iteration whose
// support fits inside the last walk filters that walk's hits by distance
// (tree.BallSearch guarantees the same hits in the same order as a walk at
// the smaller radius), so a particle walks again only when h outgrows it.
// A particle with no previous count, or whose last count fell short of the
// target by more than HTolerance, has an h that is about to grow: its walks
// reach shortWalkMargin instead, so the growth fits inside the first one.
const (
	walkMargin      = 1.03
	shortWalkMargin = 1.25
)

// bracketPass is the first pass (0-based) of the h iteration whose count
// scan also records its bracket (see hitCounts). Most particles settle
// within two passes, and for them the wider scan would cost more than it
// saves.
const bracketPass = 2

// findNeighbors runs up to maxIter smoothing-length passes per owned particle
// and writes the list at the resulting h from the hits of the last pass, so
// counts and entries cannot disagree.
//
// Each fan-out chunk writes the lists of its particles back to back into its
// own region of one shared array, sized from the previous step's counts plus
// head-room, and the regions are then closed up in place, in index order. A
// chunk that outgrows its region keeps the rest of its particles in a spill
// slice, and the list is assembled in an exactly sized array instead.
func (ws *Workspace) findNeighbors(ps *part.Set, tr *tree.Tree, p *Params, maxIter int) *NeighborList {
	n := ps.NLocal
	workers := p.workers()
	target := float64(p.NNeighbors)

	// Until the counts are known, Offsets holds the start of each particle's
	// share of the regions.
	nl := &ws.nl
	nl.Offsets, nl.Walks = slices.Grow(nl.Offsets[:0], n+1)[:n+1], 0
	for i := 0; i < n; i++ {
		e := ps.NN[i]
		if e <= 0 {
			// No previous step: initial conditions can sit well off target
			// (a lattice jumps from 81 to 122 neighbors between shells).
			e = int32(p.NNeighbors + p.NNeighbors/4)
		}
		nl.Offsets[i+1] = nl.Offsets[i] + e + e/16 + 1
	}
	nbr := nl.Nbr[:0]
	if cap(nbr) < int(nl.Offsets[n]) {
		nbr = make([]int32, nl.Offsets[n]) // exactly: it is the largest buffer
	}
	nbr = nbr[:nl.Offsets[n]]
	for len(ws.hits) < workers {
		ws.hits = append(ws.hits, make([]tree.Hit, 0, 4*p.NNeighbors))
	}
	// The h iteration's cube roots, by neighbour count, up to twice the target.
	ws.cbrt = slices.Grow(ws.cbrt[:0], 2*p.NNeighbors)
	for c := range 2 * p.NNeighbors {
		ws.cbrt = append(ws.cbrt, math.Cbrt(target/float64(c)))
	}
	cbrt := ws.cbrt
	chunks := (n + par.Chunk - 1) / par.Chunk
	regions := slices.Grow(ws.regions[:0], chunks)[:chunks]
	clear(regions)

	par.Range(n, workers, func(w, lo, hi int) {
		list := nbr[nl.Offsets[lo]:nl.Offsets[lo]:nl.Offsets[hi]]
		var spill []int32
		var walks int64
		var counts hitCounts
		wide := ws.hits[w]
		for i := lo; i < hi; i++ {
			h := ps.H[i]
			reach := -1.0 // radius of the walk that filled wide
			margin := walkMargin
			if float64(ps.NN[i]) < target*(1-p.HTolerance) { // NN is 0 with no previous count
				margin = shortWalkMargin
			}
			var r2 float64
			var within int // hits of wide inside the support, self included
			for iter := 0; ; iter++ {
				r := kernel.SupportRadius * h
				if !(r <= reach) {
					reach = r
					if iter < maxIter {
						reach *= margin
					}
					wide = tr.BallSearch(ps.Pos[i], reach, wide[:0])
					walks++
					counts.reset()
				}
				r2 = r * r
				within = counts.count(wide, r2, iter >= bracketPass)
				if iter >= maxIter {
					break
				}
				cnt := float64(within - 1) // exclude self
				if cnt < 1 {
					// Lost all neighbors: expand aggressively.
					h *= 1.5
					continue
				}
				if math.Abs(cnt-target) <= p.HTolerance*target {
					break
				}
				// n scales as h^3 at fixed local density: fixed-point step
				// damped by 1/2 for stability.
				var f float64
				if within-1 < len(cbrt) {
					f = cbrt[within-1]
				} else {
					f = math.Cbrt(target / cnt)
				}
				h *= 0.5 * (1 + f)
			}
			ps.H[i] = h

			// A non-finite particle (NaN position or h after a physics
			// blowup) matches nothing, not even itself, and gets an empty
			// list: the blowup is then reported by the conservation/NaN
			// watchdogs instead of an index panic here.
			dst := &list
			if spill != nil || len(list)+within > cap(list) {
				dst = &spill
			}
			start := len(*dst)
			for _, hit := range wide {
				if hit.Dist2 <= r2 && !(hit.Idx == int32(i) && hit.Dist2 == 0) {
					*dst = append(*dst, hit.Idx)
				}
			}
			ps.NN[i] = int32(len(*dst) - start)
		}
		regions[lo/par.Chunk], ws.hits[w] = region{list, spill, walks}, wide
	})

	var total int32
	spilled := false
	for i := 0; i < n; i++ {
		nl.Offsets[i] = total
		total += ps.NN[i]
	}
	nl.Offsets[n] = total
	for _, reg := range regions {
		spilled = spilled || reg.spill != nil
	}
	if spilled {
		nbr = make([]int32, total)
	}
	at := 0
	for _, reg := range regions {
		at += copy(nbr[at:], reg.list)
		at += copy(nbr[at:], reg.spill)
		nl.Walks += reg.walks
	}
	nl.Nbr, ws.regions = nbr[:total], regions
	return nl
}

// hitCounts counts the hits of one walk within a squared radius r2, as
// Dist2 <= r2. A scan asked to keep its bracket also finds the largest Dist2
// within r2 and the smallest beyond it: no hit lies between the two, so
// every squared radius in [lo, hi) has the scan's count, and a later pass
// whose radius falls into a kept bracket skips the scan. The last two
// brackets are kept, since a lattice shell makes h alternate between two
// counts. A new walk resets them.
type hitCounts struct {
	b    [2]bracket
	next int // the bracket the next kept scan replaces
}

type bracket struct {
	lo, hi float64
	n      int
}

// reset forgets both brackets: a zero bracket holds no r2.
func (c *hitCounts) reset() { *c = hitCounts{} }

func (c *hitCounts) count(hits []tree.Hit, r2 float64, keep bool) int {
	for _, b := range c.b {
		if b.lo <= r2 && r2 < b.hi {
			return b.n
		}
	}
	n := 0
	if !keep {
		for k := range hits {
			if hits[k].Dist2 <= r2 {
				n++
			}
		}
		return n
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	for k := range hits {
		if d := hits[k].Dist2; d <= r2 {
			n++
			lo = max(lo, d)
		} else if d < hi { // a NaN Dist2 is in no bracket
			hi = d
		}
	}
	c.b[c.next] = bracket{lo, hi, n}
	c.next ^= 1
	return n
}

// region is one chunk's share of the neighbour list under construction.
type region struct {
	list, spill []int32
	walks       int64
}

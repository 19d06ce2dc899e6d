package sfc

import (
	"runtime"
	"slices"

	"repro/internal/par"
)

// ParallelSortByKey returns the permutation that sorts items by key using a
// parallel least-significant-digit radix sort (11-bit digits, 6 passes over
// the 63-bit key space). The paper's Extrae analysis singled out serial tree
// construction (phase A) as a scalability blocker in SPHYNX; sorting the SFC
// keys is the dominant cost of building a linear octree, so the mini-app
// parallelizes exactly this step.
//
// The sort is stable. workers <= 0 selects GOMAXPROCS. A panic in a worker
// is rethrown on the caller's goroutine (par.Range).
func ParallelSortByKey(keys []Key, workers int) []int {
	return new(Sorter).Sort(keys, workers)
}

// Sorter is ParallelSortByKey with its buffers kept from one sort to the
// next: it allocates only when a sort is larger than any before it.
type Sorter struct {
	idx, tmp []int
	hist     [][]int // hist[k][d] = count of digit d in part k
}

// Sort is ParallelSortByKey. The permutation it returns is the Sorter's own
// and is overwritten by the next Sort.
func (s *Sorter) Sort(keys []Key, workers int) []int {
	n := len(keys)
	s.idx, s.tmp = slices.Grow(s.idx[:0], n)[:n], slices.Grow(s.tmp[:0], n)[:n]
	idx := s.idx
	for i := range idx {
		idx[i] = i
	}
	if n < 2 {
		return idx
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The keys are cut into parts, fixed for every pass, so that each
	// part's scatter base per digit comes from the same partition its
	// histogram counted. Each part is one fan-out chunk: Range then runs
	// parts*par.Chunk indices, enough to leave its inline path once there
	// are two parts.
	parts := max(1, min(workers, n/1024))
	size := (n + parts - 1) / parts

	const digitBits = 11
	const radix = 1 << digitBits
	const mask = radix - 1
	const passes = (63 + digitBits - 1) / digitBits // 6

	for len(s.hist) < parts {
		s.hist = append(s.hist, make([]int, radix))
	}
	hist := s.hist[:parts]

	var shift uint
	src, dst := idx, s.tmp
	part := func(k int) []int { return src[k*size : min((k+1)*size, n)] }
	// Phase 1: per-part digit histograms.
	count := func(_, lo, hi int) {
		for k := lo / par.Chunk; k*par.Chunk < hi; k++ {
			h := hist[k]
			clear(h)
			for _, i := range part(k) {
				h[(uint64(keys[i])>>shift)&mask]++
			}
		}
	}
	// Phase 3: stable parallel scatter.
	scatter := func(_, lo, hi int) {
		for k := lo / par.Chunk; k*par.Chunk < hi; k++ {
			h := hist[k]
			for _, i := range part(k) {
				d := (uint64(keys[i]) >> shift) & mask
				dst[h[d]] = i
				h[d]++
			}
		}
	}
	for pass := 0; pass < passes; pass++ {
		shift = uint(pass * digitBits)
		par.Range(parts*par.Chunk, workers, count)

		// Phase 2: exclusive prefix sum across (digit, part) in digit-major
		// order, giving each part its scatter base per digit. Serial: radix
		// * parts is small.
		total := 0
		for d := 0; d < radix; d++ {
			for k := 0; k < parts; k++ {
				c := hist[k][d]
				hist[k][d] = total
				total += c
			}
		}

		par.Range(parts*par.Chunk, workers, scatter)
		src, dst = dst, src
	}
	// passes is even, so the result landed back in idx.
	return src
}

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
	hist     [][]int // hist[w][d] = count of digit d in worker w's chunk
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
	workers = max(1, min(workers, n/1024))

	const digitBits = 11
	const radix = 1 << digitBits
	const mask = radix - 1
	const passes = (63 + digitBits - 1) / digitBits // 6

	for len(s.hist) < workers {
		s.hist = append(s.hist, make([]int, radix))
	}
	hist := s.hist[:workers]

	src, dst := idx, s.tmp
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * digitBits)

		// Phase 1: per-worker digit histograms. A worker whose chunk is
		// empty is not called, so every histogram is cleared here.
		for _, h := range hist {
			clear(h)
		}
		par.Range(n, workers, func(w, lo, hi int) {
			h := hist[w]
			for _, i := range src[lo:hi] {
				h[(uint64(keys[i])>>shift)&mask]++
			}
		})

		// Phase 2: exclusive prefix sum across (digit, worker) in digit-major
		// order, giving each worker its scatter base per digit. Serial: radix
		// * workers is small.
		total := 0
		for d := 0; d < radix; d++ {
			for w := 0; w < workers; w++ {
				c := hist[w][d]
				hist[w][d] = total
				total += c
			}
		}

		// Phase 3: stable parallel scatter.
		par.Range(n, workers, func(w, lo, hi int) {
			h := hist[w]
			for _, i := range src[lo:hi] {
				d := (uint64(keys[i]) >> shift) & mask
				dst[h[d]] = i
				h[d]++
			}
		})
		src, dst = dst, src
	}
	// passes is even, so the result landed back in idx.
	return src
}

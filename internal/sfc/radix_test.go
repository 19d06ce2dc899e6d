package sfc

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// stableSortByKey is the reference the radix sort is held to: the
// permutation a stable comparison sort of the keys produces.
func stableSortByKey(keys []Key) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	return idx
}

func TestParallelSortMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 2, 100, 5000} {
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key(rng.Uint64() & (1<<63 - 1))
		}
		want := stableSortByKey(keys)
		for _, workers := range []int{1, 3, 8} {
			got := ParallelSortByKey(keys, workers)
			if len(got) != len(want) {
				t.Fatalf("n=%d w=%d: length %d", n, workers, len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d w=%d: perm[%d] = %d, want %d", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestParallelSortStable(t *testing.T) {
	if got, want := ParallelSortByKey([]Key{5, 1, 3, 1}, 1), []int{1, 3, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("perm = %v, want %v (the two 1s keep their order)", got, want)
	}
	// Many duplicate keys: stability requires original order within groups.
	keys := make([]Key, 1000)
	for i := range keys {
		keys[i] = Key(i % 7)
	}
	got := ParallelSortByKey(keys, 4)
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if keys[a] == keys[b] && a > b {
			t.Fatalf("instability at %d: index %d before %d for equal keys", i, a, b)
		}
		if keys[a] > keys[b] {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestParallelSortSorted(t *testing.T) {
	keys := make([]Key, 300)
	for i := range keys {
		keys[i] = Key(i)
	}
	got := ParallelSortByKey(keys, 2)
	for i := range got {
		if got[i] != i {
			t.Fatalf("already-sorted input permuted at %d", i)
		}
	}
}

func BenchmarkParallelSort1M(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]Key, 1<<20)
	for i := range keys {
		keys[i] = Key(rng.Uint64() & (1<<63 - 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelSortByKey(keys, 0)
	}
}

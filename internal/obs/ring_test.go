package obs

import (
	"reflect"
	"testing"
)

// retainedAfter is the ring's contract in closed form: after positions 1..n
// the stride is the smallest power of two that fits the grid into max items,
// and the retained positions are that grid.
func retainedAfter(n, max int) (stride int, pos []int) {
	stride = 1
	for (n+stride-1)/stride > max {
		stride *= 2
	}
	for p := 1; p <= n; p += stride {
		pos = append(pos, p)
	}
	return stride, pos
}

// TestRingRetainedSetIsAFunctionOfN is the one statement of the retention
// rule the flight recorder (internal/telemetry) and the metrics history
// (internal/obs/history) share: the retained positions depend on the number
// of positions fed and nothing else, never exceed the bound, always include
// position 1, and survive a truncation and refeed — the checkpoint-resume
// path — unchanged.
func TestRingRetainedSetIsAFunctionOfN(t *testing.T) {
	for _, max := range []int{2, 7, 256, 512} {
		r := NewRing[int](max)
		for n := 1; n <= 20*max; n++ {
			r.Add(n, n)
			stride, want := retainedAfter(n, max)
			got := r.Items()
			if len(got) > max || got[0] != 1 {
				t.Fatalf("max=%d n=%d: %d items retained, first %d", max, n, len(got), got[0])
			}
			if r.Stride() != stride || !reflect.DeepEqual(got, want) {
				t.Fatalf("max=%d n=%d: stride %d items %v, want stride %d items %v",
					max, n, r.Stride(), got, stride, want)
			}
		}

		// Killed after `fed` positions, restored to position k, refed to n.
		for _, n := range []int{max, max + 1, 3*max + 1, 20 * max} {
			for _, fed := range []int{n / 2, n - 1, n} {
				for _, k := range []int{0, 1, fed / 3, fed - 1, fed} {
					r := NewRing[int](max)
					for p := 1; p <= fed; p++ {
						r.Add(p, p)
					}
					r.TruncateAfter(k)
					if got := r.Items(); len(got) > 0 && got[len(got)-1] > k {
						t.Fatalf("max=%d: position %d survived TruncateAfter(%d)", max, got[len(got)-1], k)
					}
					for p := k + 1; p <= n; p++ {
						r.Add(p, p)
					}
					stride, want := retainedAfter(n, max)
					if r.Stride() != stride || !reflect.DeepEqual(r.Items(), want) {
						t.Fatalf("max=%d n=%d fed=%d k=%d: resumed ring stride %d items %v, uninterrupted stride %d items %v",
							max, n, fed, k, r.Stride(), r.Items(), stride, want)
					}
				}
			}
		}
	}
}

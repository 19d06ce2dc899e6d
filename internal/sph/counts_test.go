package sph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tree"
)

// TestBracketCountsMatchPlainCounts: whatever brackets a walk has kept, the
// count hitCounts returns for a squared radius is the plain count of hits
// with Dist2 <= r2. The hit sets are random, with repeated distances (ties),
// an empty set and NaN distances; the radii are drawn from the distances
// themselves, their neighbours, values between them, ±Inf, NaN and
// negatives, in a random order and with the brackets kept or not at random.
func TestBracketCountsMatchPlainCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for set := range 400 {
		var hits []tree.Hit
		switch n := rng.Intn(40); {
		case set%10 == 0: // empty
		default:
			levels := 1 + rng.Intn(8) // few distinct distances: many ties
			for k := range n {
				d := float64(rng.Intn(levels)) * 0.25
				if rng.Intn(30) == 0 {
					d = math.NaN()
				}
				hits = append(hits, tree.Hit{Idx: int32(k), Dist2: d})
			}
		}
		var c hitCounts
		for q := range 60 {
			var r2 float64
			switch rng.Intn(8) {
			case 0:
				r2 = math.Inf(1)
			case 1:
				r2 = math.NaN()
			case 2:
				r2 = -rng.Float64()
			case 3, 4:
				if len(hits) > 0 {
					r2 = hits[rng.Intn(len(hits))].Dist2
					r2 = []float64{r2, math.Nextafter(r2, math.Inf(1)), math.Nextafter(r2, math.Inf(-1))}[rng.Intn(3)]
				}
			default:
				r2 = rng.Float64() * 2.5
			}
			want := 0
			for _, h := range hits {
				if h.Dist2 <= r2 {
					want++
				}
			}
			if got := c.count(hits, r2, rng.Intn(4) != 0); got != want {
				t.Fatalf("set %d (%d hits), query %d: count at r2 = %v is %d, want %d (brackets %+v)",
					set, len(hits), q, r2, got, want, c.b)
			}
		}
	}
}

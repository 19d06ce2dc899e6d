package obs

// Ring is the bounded series behind the step-telemetry flight recorder and
// the metrics history: it keeps at most max items of a stream fed by 1-based
// position. An item is retained iff (pos-1) % stride == 0; whenever the
// retained set outgrows max the stride doubles and the items off the new
// grid are compacted away. Position 1 is on every grid, old history thins
// and recent history stays dense.
//
// The stride is monotone in the highest position fed and retention depends
// on the position alone, so the retained set after feeding 1..N is a pure
// function of N — however the feed was chunked, and across TruncateAfter(k)
// followed by a refeed of k+1..N. That is what makes a persisted track
// content-address-stable across kill/resume.
//
// Not safe for concurrent use: the holder locks.
type Ring[T any] struct {
	max, stride int
	pos         []int // positions of items, ascending
	items       []T
}

// NewRing returns an empty ring bounded to max items (at least 1).
func NewRing[T any](max int) *Ring[T] {
	if max < 1 {
		panic("obs: NewRing with max < 1")
	}
	return &Ring[T]{max: max, stride: 1}
}

// Add offers the item at pos; positions must be fed in ascending order.
func (r *Ring[T]) Add(pos int, item T) {
	if !r.retains(pos) {
		return
	}
	r.pos = append(r.pos, pos)
	r.items = append(r.items, item)
	for len(r.items) > r.max {
		r.stride *= 2
		r.keep(r.retains)
	}
}

// TruncateAfter drops every item past pos. The stride deliberately stays: a
// refeed from pos+1 then retains exactly what an uninterrupted feed would.
func (r *Ring[T]) TruncateAfter(pos int) {
	r.keep(func(p int) bool { return p <= pos })
}

// Stride is the current retention stride: one item kept per Stride
// positions.
func (r *Ring[T]) Stride() int { return r.stride }

// Items returns the retained items, oldest first. The slice is the ring's
// own: valid until the next Add or TruncateAfter, not to be modified.
func (r *Ring[T]) Items() []T { return r.items }

func (r *Ring[T]) retains(pos int) bool { return (pos-1)%r.stride == 0 }

// keep compacts in place to the items whose position passes ok.
func (r *Ring[T]) keep(ok func(pos int) bool) {
	n := 0
	for i, p := range r.pos {
		if ok(p) {
			r.pos[n], r.items[n] = p, r.items[i]
			n++
		}
	}
	r.pos, r.items = r.pos[:n], r.items[:n]
}

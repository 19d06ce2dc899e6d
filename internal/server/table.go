package server

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"
)

// record is the lifecycle state every resource record carries — jobs and
// the derived kinds (experiments, scaling sweeps, cluster analyses) embed
// it, so one table type registers, finishes, lists, deletes and prunes all
// of them. Mutable fields are guarded by the owning Server's mutex.
type record struct {
	ID    string
	Hash  string
	State JobState
	Err   string
	// CacheHit marks a record whose stored result was served without
	// executing anything.
	CacheHit bool

	// done is closed when the record reaches a terminal state.
	done chan struct{}
	// doneAt is when it did, or for a hit record its latest hit; JobTTL
	// pruning keys on it.
	doneAt time.Time
}

func (r *record) core() *record { return r }

// hitRecord is the record of a cache hit: terminal from the start, so it
// registers onto the shared closed done channel.
func hitRecord(hash string, now time.Time) record {
	return record{Hash: hash, State: StateCompleted, CacheHit: true, doneAt: now}
}

// closedDone is the done channel of every terminal record: one terminal when
// it registers gets it at once, one that finishes once its own is closed,
// so a finished record keeps no channel. It is closed here, once;
// finishLocked never sees a record registered terminal.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// terminal reports whether the record has reached a final state.
func (r *record) terminal() bool {
	switch r.State {
	case StateCompleted, StateFailed, StateCancelled:
		return true
	}
	return false
}

// resourceRecord is satisfied by every record type, a pointer, through the
// embedded record.
type resourceRecord interface {
	comparable
	core() *record
}

// table is one resource table: records by id, their submission order, what
// it knows per hash, the expiry order of its terminal records, and the id
// counter. Server holds one per resource kind. The table owns no lock: every
// field is guarded by the owning Server's mutex and reached only through the
// ...Locked methods below. The maps are allocated on first registration, so
// an unused kind costs nothing at construction.
type table[R resourceRecord, C any] struct {
	// prefix names the kind in its ids: "<prefix>-%06d", allocated in
	// submission order.
	prefix string
	// expires is set when terminal records expire (JobTTL); only then do
	// they enter expiry.
	expires bool
	recs    map[string]R // guarded by mu
	// order holds the ids in allocation order, dropped ones too until more
	// than half are (dead counts them) and it is compacted. next[i] is i
	// while order[i] lives, else a later position nearer the next live one
	// (a union-find with path halving), so a listing steps over dropped ids
	// in amortized constant time.
	order  []string                    // guarded by mu
	next   []int32                     // guarded by mu
	dead   int                         // guarded by mu
	hashes map[string]*hashEntry[R, C] // guarded by mu
	expiry expiry                      // guarded by mu
	nextID int                         // guarded by mu
}

// hashEntry is what a table keeps per hash: the active (queued or running)
// record identical submissions coalesce onto, the cache-hit record repeated
// hits share, how many records carry the hash, and the hash's result in the
// memory layer over the store. It lives while a record carries the hash or
// a result is cached, so the memory-layer result goes with the hash's last
// record.
type hashEntry[R resourceRecord, C any] struct {
	active, hit R
	res         C
	cached      bool
	records     int32
}

func (t *table[R, C]) getLocked(id string) (R, bool) {
	rec, ok := t.recs[id]
	return rec, ok
}

func (t *table[R, C]) lenLocked() int { return len(t.recs) }

// eachLocked visits every record, in no particular order.
func (t *table[R, C]) eachLocked(visit func(R)) {
	for _, rec := range t.recs {
		visit(rec)
	}
}

// entryLocked returns the hash's entry, creating it.
func (t *table[R, C]) entryLocked(hash string) *hashEntry[R, C] {
	e := t.hashes[hash]
	if e == nil {
		if t.hashes == nil {
			t.hashes = map[string]*hashEntry[R, C]{}
		}
		e = &hashEntry[R, C]{}
		t.hashes[hash] = e
	}
	return e
}

// activeLocked returns the queued or running record carrying hash, if any:
// identical submissions coalesce onto it instead of registering a duplicate.
func (t *table[R, C]) activeLocked(hash string) (R, bool) {
	var none R
	if e := t.hashes[hash]; e != nil && e.active != none {
		return e.active, true
	}
	return none, false
}

// registerLocked enters rec into the table and returns the record the
// caller must view. A record still to run gets its own id and done channel
// and becomes the active record of its hash. One already terminal (a cache
// hit) shares closedDone and coalesces like an active one: if its hash has
// a hit record, that record's lifetime restarts at rec's doneAt and it is
// returned in rec's place, so repeated hits of a hash keep one record.
func (t *table[R, C]) registerLocked(rec R) R {
	if t.recs == nil {
		t.recs = map[string]R{}
	}
	c := rec.core()
	e := t.entryLocked(c.Hash)
	var none R
	if c.terminal() {
		if e.hit != none {
			e.hit.core().doneAt = c.doneAt
			return e.hit
		}
		c.done, e.hit = closedDone, rec
	} else {
		c.done, e.active = make(chan struct{}), rec
	}
	e.records++
	t.nextID++
	c.ID = fmt.Sprintf("%s-%06d", t.prefix, t.nextID)
	t.recs[c.ID] = rec
	t.next = append(t.next, int32(len(t.order)))
	t.order = append(t.order, c.ID)
	t.expireLocked(c)
	return rec
}

// finishLocked is the one terminal transition: state, error and time are
// set, the hash stops deduplicating, and done is closed — exactly once per
// record, which callers ensure by finishing only non-terminal records (a
// record registered terminal is never finished).
func (t *table[R, C]) finishLocked(rec R, state JobState, msg string, now time.Time) {
	c := rec.core()
	c.State, c.Err, c.doneAt = state, msg, now
	if e := t.hashes[c.Hash]; e != nil && e.active == rec {
		var none R
		e.active = none
	}
	t.expireLocked(c)
	close(c.done)
	c.done = closedDone
}

func (t *table[R, C]) cachedLocked(hash string) (res C, ok bool) {
	if e := t.hashes[hash]; e != nil && e.cached {
		return e.res, true
	}
	return res, false
}

func (t *table[R, C]) cacheLocked(hash string, res C) {
	e := t.entryLocked(hash)
	e.res, e.cached = res, true
}

func (t *table[R, C]) uncacheLocked(hash string) {
	if e := t.hashes[hash]; e != nil {
		var none C
		e.res, e.cached = none, false
		if e.records == 0 {
			delete(t.hashes, hash)
		}
	}
}

// DefaultPageLimit and MaxPageLimit bound one page of a cursor-paginated
// listing.
const (
	DefaultPageLimit = 100
	MaxPageLimit     = 1000
)

// cursorAfter reports whether id comes after cursor in allocation order.
// IDs are "<prefix>-<seq>" with the sequence zero-padded to six digits, so
// within one length plain string comparison is allocation order; past a
// million allocations the sequence outgrows the padding and longer IDs are
// strictly newer. Comparing (length, string) therefore stays correct for
// any lifetime, including cursors naming since-pruned IDs.
func cursorAfter(id, cursor string) bool {
	if len(id) != len(cursor) {
		return len(id) > len(cursor)
	}
	return id > cursor
}

// pageLocked returns one page of records in submission order, starting
// after the cursor id (empty = from the beginning); a non-empty state keeps
// only records currently in it. limit is clamped to the page bounds. The
// returned cursor addresses the next page and is empty when the listing is
// exhausted. order holds the IDs in allocation order, so the cursor is
// found by binary search, and a cursor naming a since-pruned record still
// orders correctly against the survivors. A state filter still walks every
// record after the cursor until the page is full.
func (t *table[R, C]) pageLocked(state JobState, cursor string, limit int) (page []R, next string) {
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	limit = min(limit, MaxPageLimit)
	page = make([]R, 0, limit)
	from := sort.Search(len(t.order), func(i int) bool { return cursor == "" || cursorAfter(t.order[i], cursor) })
	for i := t.liveLocked(from); i < len(t.order); i = t.liveLocked(i + 1) {
		rec := t.recs[t.order[i]]
		if state != "" && rec.core().State != state {
			continue
		}
		if len(page) == limit {
			return page, page[limit-1].core().ID
		}
		page = append(page, rec)
	}
	return page, ""
}

// Deletion failure classes for the HTTP layer: unknown resource (404) vs a
// resource still queued or running (409 — cancel it first).
var (
	ErrNotFound    = errors.New("server: not found")
	ErrNotTerminal = errors.New("server: not in a terminal state")
)

// deleteLocked removes one terminal record: ErrNotFound for unknown ids,
// ErrNotTerminal for records still queued or running; noun names the kind
// in the message.
func (t *table[R, C]) deleteLocked(id, noun string) error {
	rec, ok := t.recs[id]
	if !ok {
		return fmt.Errorf("%w: no %s %q", ErrNotFound, noun, id)
	}
	if c := rec.core(); !c.terminal() {
		return fmt.Errorf("%s %s is %s, %w", noun, id, c.State, ErrNotTerminal)
	}
	t.dropLocked(id)
	return nil
}

// expireLocked enters a terminal record into the expiry order.
func (t *table[R, C]) expireLocked(c *record) {
	if t.expires && c.terminal() {
		heap.Push(&t.expiry, expiring{c.doneAt, c.ID})
	}
}

// pruneLocked drops the terminal records that finished before cutoff. It
// pops only expired entries off the expiry order, so it costs what it
// drops. A hit refreshes its record's doneAt without moving the entry,
// which goes back in at the new time when it surfaces; the entry of a
// deleted record is discarded.
func (t *table[R, C]) pruneLocked(cutoff time.Time) {
	for len(t.expiry) > 0 && t.expiry[0].at.Before(cutoff) {
		x := heap.Pop(&t.expiry).(expiring)
		rec, ok := t.recs[x.id]
		if !ok {
			continue
		}
		if c := rec.core(); !c.doneAt.Equal(x.at) {
			heap.Push(&t.expiry, expiring{c.doneAt, x.id})
			continue
		}
		t.dropLocked(x.id)
	}
}

// dropLocked forgets one record, its hash's hit entry if it is that
// record, and the hash's entry with its memory-layer result once no record
// carries the hash — so repeated submit+delete traffic cannot grow the
// cache without bound. The result stays addressable in the store
// regardless.
func (t *table[R, C]) dropLocked(id string) {
	rec := t.recs[id]
	hash := rec.core().Hash
	delete(t.recs, id)
	e := t.hashes[hash]
	if e.hit == rec {
		var none R
		e.hit = none
	}
	if e.records--; e.records == 0 {
		delete(t.hashes, hash)
	}
	p := sort.Search(len(t.order), func(i int) bool { return !cursorAfter(id, t.order[i]) })
	t.next[p] = int32(p + 1)
	if t.dead++; t.dead > len(t.order)/2 {
		kept := t.order[:0]
		for _, id := range t.order {
			if _, ok := t.recs[id]; ok {
				kept = append(kept, id)
			}
		}
		clear(t.order[len(kept):])
		t.order, t.next, t.dead = kept, t.next[:len(kept)], 0
		for i := range t.next {
			t.next[i] = int32(i)
		}
	}
}

// liveLocked returns the first position from i on whose record lives, or
// len(order).
func (t *table[R, C]) liveLocked(i int) int {
	for i < len(t.next) && int(t.next[i]) != i {
		j := int(t.next[i])
		if j < len(t.next) {
			t.next[i] = t.next[j]
		}
		i = j
	}
	return i
}

// expiring is an entry of a table's expiry order: a terminal record's id
// and its doneAt when it entered.
type expiring struct {
	at time.Time
	id string
}

// expiry is a min-heap of entries by time, for container/heap.
type expiry []expiring

func (h expiry) Len() int           { return len(h) }
func (h expiry) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h expiry) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expiry) Push(x any)        { *h = append(*h, x.(expiring)) }
func (h *expiry) Pop() any {
	old := *h
	x := old[len(old)-1]
	old[len(old)-1] = expiring{}
	*h = old[:len(old)-1]
	return x
}

package server

import (
	"errors"
	"fmt"
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

// closedDone is the done channel of every record that is terminal when it
// registers. It is closed here, once; finishLocked never sees such a record.
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

// resourceRecord is satisfied by every record type through the embedded
// record.
type resourceRecord interface{ core() *record }

// table is one resource table: records by id, their submission order, the
// active (non-terminal) record per hash for dedup, the cache-hit record per
// hash that repeated hits share, a memory layer of completed results over
// the store, and the id counter. Server holds one per resource kind. The
// table owns no lock: every field is guarded by the owning Server's mutex
// and reached only through the ...Locked methods below. The maps are
// allocated on first registration, so an unused kind costs nothing at
// construction.
type table[R resourceRecord, C any] struct {
	// prefix names the kind in its ids: "<prefix>-%06d", allocated in
	// submission order.
	prefix string
	recs   map[string]R // guarded by mu
	order  []string     // guarded by mu
	active map[string]R // guarded by mu
	hits   map[string]R // guarded by mu
	cache  map[string]C // guarded by mu
	nextID int          // guarded by mu
	// oldest is at or before the earliest doneAt of any terminal record
	// (zero: none), so pruneLocked can skip a table nothing in it can have
	// expired from. A hit's refreshed doneAt only rises, and each drop scan
	// recomputes it.
	oldest time.Time // guarded by mu
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

// activeLocked returns the queued or running record carrying hash, if any:
// identical submissions coalesce onto it instead of registering a duplicate.
func (t *table[R, C]) activeLocked(hash string) (R, bool) {
	rec, ok := t.active[hash]
	return rec, ok
}

// registerLocked enters rec into the table and returns the record the
// caller must view. A record still to run gets its own id and done channel
// and becomes the active record of its hash. One already terminal (a cache
// hit) shares closedDone and coalesces like an active one: if its hash has
// a hit record, that record's lifetime restarts at rec's doneAt and it is
// returned in rec's place, so repeated hits of a hash keep one record.
func (t *table[R, C]) registerLocked(rec R) R {
	if t.recs == nil {
		t.recs, t.active, t.hits = map[string]R{}, map[string]R{}, map[string]R{}
	}
	c := rec.core()
	if c.terminal() {
		if hit, ok := t.hits[c.Hash]; ok {
			hit.core().doneAt = c.doneAt
			return hit
		}
		c.done = closedDone
		t.hits[c.Hash] = rec
		t.markLocked(c)
	} else {
		c.done = make(chan struct{})
		t.active[c.Hash] = rec
	}
	t.nextID++
	c.ID = fmt.Sprintf("%s-%06d", t.prefix, t.nextID)
	t.recs[c.ID] = rec
	t.order = append(t.order, c.ID)
	return rec
}

// markLocked lowers the prune watermark to a terminal record's doneAt.
func (t *table[R, C]) markLocked(c *record) {
	if c.terminal() && !c.doneAt.IsZero() && (t.oldest.IsZero() || c.doneAt.Before(t.oldest)) {
		t.oldest = c.doneAt
	}
}

// finishLocked is the one terminal transition: state, error and time are
// set, the hash stops deduplicating, and done is closed — exactly once per
// record, which callers ensure by finishing only non-terminal records (a
// record registered terminal is never finished).
func (t *table[R, C]) finishLocked(rec R, state JobState, msg string, now time.Time) {
	c := rec.core()
	c.State, c.Err, c.doneAt = state, msg, now
	delete(t.active, c.Hash)
	t.markLocked(c)
	close(c.done)
}

func (t *table[R, C]) cachedLocked(hash string) (C, bool) {
	res, ok := t.cache[hash]
	return res, ok
}

func (t *table[R, C]) cacheLocked(hash string, res C) {
	if t.cache == nil {
		t.cache = map[string]C{}
	}
	t.cache[hash] = res
}

func (t *table[R, C]) uncacheLocked(hash string) { delete(t.cache, hash) }

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
// exhausted. IDs are allocated in submission order, so a cursor naming a
// since-pruned record still orders correctly against the survivors.
func (t *table[R, C]) pageLocked(state JobState, cursor string, limit int) (page []R, next string) {
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	limit = min(limit, MaxPageLimit)
	page = make([]R, 0, limit)
	for _, id := range t.order {
		rec := t.recs[id]
		if cursor != "" && !cursorAfter(id, cursor) || state != "" && rec.core().State != state {
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
	t.dropLocked(func(c *record) bool { return c.ID == id })
	return nil
}

// pruneLocked drops the terminal records that finished before cutoff; it
// returns at once while none can have.
func (t *table[R, C]) pruneLocked(cutoff time.Time) {
	if t.oldest.IsZero() || !t.oldest.Before(cutoff) {
		return
	}
	t.dropLocked(func(c *record) bool {
		return c.terminal() && !c.doneAt.IsZero() && c.doneAt.Before(cutoff)
	})
}

// dropLocked forgets the records drop selects, a hash's hit entry with its
// record, then the memory-layer entries whose hash no longer backs any
// surviving record — so repeated submit+delete traffic cannot grow the
// cache without bound. The results stay addressable in the store
// regardless. The scan recomputes the prune watermark from the survivors.
func (t *table[R, C]) dropLocked(drop func(*record) bool) {
	kept := t.order[:0]
	var dropped map[string]bool
	t.oldest = time.Time{}
	for _, id := range t.order {
		c := t.recs[id].core()
		if !drop(c) {
			kept = append(kept, id)
			t.markLocked(c)
			continue
		}
		delete(t.recs, id)
		if hit, ok := t.hits[c.Hash]; ok && hit.core() == c {
			delete(t.hits, c.Hash)
		}
		if dropped == nil {
			dropped = map[string]bool{}
		}
		dropped[c.Hash] = true
	}
	t.order = kept
	if len(dropped) == 0 {
		return
	}
	for _, id := range kept {
		delete(dropped, t.recs[id].core().Hash)
	}
	for hash := range dropped {
		delete(t.cache, hash)
	}
}

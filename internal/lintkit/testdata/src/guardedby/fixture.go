// Package guardedby is the guardedby fixture: fields annotated
// `guarded by <mu>` must only be touched under that mutex, from *Locked
// helpers, or during constructor initialization.
package guardedby

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// inc holds the lock: clean.
func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// read touches the field with no visible lock acquisition.
func (c *counter) read() int {
	return c.n // want "without acquiring mu"
}

// snapshotLocked carries the caller-holds-the-lock suffix: clean.
func (c *counter) snapshotLocked() int { return c.n }

// newCounter initializes a freshly allocated value before sharing: clean.
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	return c
}

// table is generic and owns no lock: its field is guarded by the mutex of
// whoever embeds it, and reached through *Locked methods.
type table[R any] struct {
	recs map[string]R // guarded by mu
}

func (t *table[R]) getLocked(id string) R { return t.recs[id] }

// peek reads the field of the generic type with no lock in sight.
func (t *table[R]) peek(id string) R {
	return t.recs[id] // want "without acquiring mu"
}

type owner struct {
	mu   sync.Mutex
	jobs table[int] // guarded by mu
}

// get locks the owner's mutex around the instantiated table: clean.
func (o *owner) get(id string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.jobs.getLocked(id)
}

// leak reaches into the instantiated table without the lock.
func (o *owner) leak() int {
	return len(o.jobs.recs) // want "without acquiring mu"
}

package server

import (
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/store"
)

// A derived resource is computed from other results rather than from a
// particle run: a convergence experiment and a scaling sweep aggregate the
// persisted reports of member jobs, a cluster analysis fits the persisted
// verification corpus. All three share one lifecycle —
//
//	plan (validate, canonicalize, hash, member specs)
//	→ coalesce onto an active record with the same hash
//	→ serve a persisted result (from the store) as a cache hit
//	→ fan the members out through the ordinary coalescing Submit
//	→ collector: wait for the members, aggregate, marshal
//	→ persist by hash → terminal state → close done
//
// — implemented once by Derived. A kind supplies only what differs: its
// names and four hooks. The collector reads each member's report from the
// store, so a member evicted before it is read fails the record. The table
// holds no result: the record carries its own, and the store every other.
type kind[S, V any] struct {
	// noun names the kind in messages and log lines ("experiment"); body
	// names its request body in decode errors ("sweep").
	noun, body string
	// prefix is the id prefix ("exp" gives exp-%06d), route the collection
	// path, listKey the page envelope's array key.
	prefix, route, listKey string

	// plan validates and canonicalizes a submission and names its inputs.
	// It runs without the server lock and may read the store.
	plan func(s *Server, spec S) (plan[S], error)
	// aggregate turns the finished members (and the plan's input) into the
	// result value that is marshaled and persisted. It runs on the
	// collector goroutine without the server lock.
	aggregate func(s *Server, rec *derived[S]) (any, error)
	// view renders the wire shape; it is called with s.mu held.
	view func(s *Server, rec *derived[S]) V
	// applied, when set, folds a result into server state, on completion
	// and on every cache hit (a restart empties that state). It runs in two
	// steps so the decode stays off the server lock: applied(raw) parses,
	// and the function it returns is called with s.mu held.
	applied func(raw []byte) func(s *Server, id string)
}

// plan is what a kind derives from one submission.
type plan[S any] struct {
	spec    S // canonical
	hash    string
	members []memberSpec
	// input is handed to aggregate on the record (an analysis' corpus) and
	// dropped once the record is terminal; inputs is its size, kept for the
	// view.
	input  any
	inputs int
}

// memberSpec is one member job a plan asks for; arm and cores locate it on
// a scaling ladder (zero elsewhere), label names it in error messages.
type memberSpec struct {
	spec    scenario.JobSpec
	arm     int
	armName string
	cores   int
	label   string
}

// member binds one planned member to the job executing it; n is the job's
// canonical particle count.
type member struct {
	memberSpec
	n     int
	jobID string
	hash  string
	done  <-chan struct{}
}

// derived is the record of one derived resource.
type derived[S any] struct {
	record
	Spec    S // canonical
	Members []member
	// Result is the persisted aggregation JSON, served byte-identically
	// across cache hits and restarts.
	Result json.RawMessage
	// Inputs is the size of the plan's non-member input set.
	Inputs int
	input  any
}

// resourceView is what the HTTP layer reads off any resource's view: the
// hash for the X-Sphexa-Hash header, the state for status codes and stream
// termination.
type resourceView interface {
	meta() (hash string, state JobState)
}

// Derived is the table and lifecycle of one derived-resource kind.
type Derived[S any, V resourceView] struct {
	s    *Server
	kind kind[S, V]
	tab  table[*derived[S], struct{}] // guarded by mu
}

func newDerived[S any, V resourceView](s *Server, k kind[S, V]) Derived[S, V] {
	return Derived[S, V]{s: s, kind: k, tab: table[*derived[S], struct{}]{prefix: k.prefix, expires: s.opts.JobTTL > 0}}
}

// Submit resolves a submission like a job: an active identical one
// coalesces onto the running record, a persisted result completes
// instantly as a cache hit, and otherwise every member is submitted through
// the ordinary coalescing job path — members identical to stored or
// in-flight jobs never recompute — with a collector goroutine aggregating
// and persisting the result when the last member lands.
func (d *Derived[S, V]) Submit(spec S) (*V, error) {
	s := d.s
	p, err := d.kind.plan(s, spec)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	s.pruneLocked()
	if active, ok := d.tab.activeLocked(p.hash); ok {
		v := d.kind.view(s, active)
		s.mu.Unlock()
		return &v, nil
	}
	s.mu.Unlock()

	// Everything that touches disk or the job queue runs with the lock
	// released. Members are submitted before the record is registered:
	// duplicates against active jobs, stored results, or a racing identical
	// submission all coalesce at the job layer, so this never
	// double-computes. A mid-ladder failure (queue full) aborts the
	// submission but leaves the already-enqueued members running as
	// ordinary jobs — they may have coalesced with other clients' work, so
	// cancelling them could kill someone else's job; their results persist
	// and the retried submission coalesces straight onto them.
	raw, _, err := s.opts.Store.ReadObject(p.hash) // CRC-verified, outside the lock
	hit := err == nil
	var members []member
	var apply func(*Server, string)
	if !hit {
		if members, err = d.fanOut(p.members); err != nil {
			return nil, err
		}
	} else if d.kind.applied != nil {
		apply = d.kind.applied(raw)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if active, ok := d.tab.activeLocked(p.hash); ok {
		// An identical submission raced in; its members coalesced with ours.
		v := d.kind.view(s, active)
		return &v, nil
	}
	rec := &derived[S]{
		record: record{Hash: p.hash, State: StateRunning},
		Spec:   p.spec, Members: members, Inputs: p.inputs, input: p.input,
	}
	if hit {
		rec.record, rec.Result, rec.input = hitRecord(p.hash, s.now()), raw, nil
	}
	rec = d.tab.registerLocked(rec)
	if !hit {
		go d.collect(rec)
	} else if apply != nil {
		apply(s, rec.ID)
	}
	v := d.kind.view(s, rec)
	return &v, nil
}

// fanOut submits the planned members in order and binds each to its job.
// The collector reads each member's report from the store.
func (d *Derived[S, V]) fanOut(specs []memberSpec) ([]member, error) {
	members := make([]member, 0, len(specs))
	for _, ms := range specs {
		view, err := d.s.Submit(ms.spec)
		if err != nil {
			return nil, fmt.Errorf("server: submitting %s member %s: %w", d.kind.noun, ms.label, err)
		}
		members = append(members, member{
			memberSpec: ms, n: view.Spec.Params.N,
			jobID: view.ID, hash: view.Hash, done: d.s.memberDone(view.ID),
		})
	}
	return members, nil
}

// collect waits for every member to reach a terminal state, aggregates, and
// finishes the record.
func (d *Derived[S, V]) collect(rec *derived[S]) {
	// Contain collector panics: a bad member report or a degenerate fleet
	// must fail this one record, never the process. If the record already
	// went terminal there is nothing left to fail (done closes exactly once).
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		select {
		case <-rec.done:
			d.s.log.Error(d.kind.noun+" collector panicked after terminal state", "id", rec.ID, "panic", v)
		default:
			d.finish(rec, nil, fmt.Errorf("collector panic: %v", v))
		}
	}()
	for _, m := range rec.Members {
		select {
		case <-m.done:
		case <-d.s.ctx.Done():
			return // server shutting down; the record stays running
		}
	}
	result, err := d.kind.aggregate(d.s, rec)
	var raw []byte
	if err == nil {
		if raw, err = json.Marshal(result); err != nil {
			err = fmt.Errorf("encoding result: %v", err)
		}
	}
	d.finish(rec, raw, err)
}

// finish is the terminal transition of a collected record: a result is
// persisted content-addressed by the record's hash (CRC-verified on read,
// subject to the store's TTL/LRU policy like any result) and held by the
// record, so it completes even if that write failed (and a resubmission
// then recomputes); an error fails the record.
func (d *Derived[S, V]) finish(rec *derived[S], raw []byte, err error) {
	s := d.s
	state, msg := StateCompleted, ""
	var apply func(*Server, string)
	if err != nil {
		state, msg = StateFailed, err.Error()
	} else {
		if perr := s.opts.Store.Put(store.Meta{Hash: rec.Hash}, raw); perr != nil {
			s.log.Warn("derived result not persisted", "kind", d.kind.noun,
				"id", rec.ID, "hash", rec.Hash, "error", perr)
		}
		if d.kind.applied != nil {
			apply = d.kind.applied(raw)
		}
	}

	s.mu.Lock()
	if err == nil {
		rec.Result = raw
	}
	rec.input = nil
	d.tab.finishLocked(rec, state, msg, s.now())
	if apply != nil {
		apply(s, rec.ID)
	}
	s.mu.Unlock()

	if err != nil {
		s.log.Error(d.kind.noun+" failed", "id", rec.ID, "hash", rec.Hash, "error", msg)
		return
	}
	s.log.Info(d.kind.noun+" completed", "id", rec.ID, "hash", rec.Hash, "members", len(rec.Members))
}

// Get returns a snapshot of the record, or false.
func (d *Derived[S, V]) Get(id string) (view V, ok bool) {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	rec, ok := d.tab.getLocked(id)
	if ok {
		view = d.kind.view(d.s, rec)
	}
	return view, ok
}

// Done returns a channel closed when the record reaches a terminal state.
func (d *Derived[S, V]) Done(id string) (<-chan struct{}, bool) {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	rec, ok := d.tab.getLocked(id)
	if !ok {
		return nil, false
	}
	return rec.done, true
}

// List returns one page of records in submission order, with the cursor
// semantics of ListPage.
func (d *Derived[S, V]) List(cursor string, limit int) ([]V, string) {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	d.s.pruneLocked()
	page, next := d.tab.pageLocked("", cursor, limit)
	out := make([]V, len(page))
	for i, rec := range page {
		out[i] = d.kind.view(d.s, rec)
	}
	return out, next
}

// Delete removes a terminal record; its persisted result stays addressable
// by hash, so the identical resubmission is still a cache hit.
func (d *Derived[S, V]) Delete(id string) error {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return d.tab.deleteLocked(id, d.kind.noun)
}

// memberDone returns the done channel of a member job, or the closed one
// when the record has vanished between Submit and this call — only
// terminal records are deletable or prunable, so a missing record means the
// member already finished (its result stays reachable by hash). Without
// this, a collector would block forever on a nil channel.
func (s *Server) memberDone(id string) <-chan struct{} {
	if done, ok := s.Done(id); ok {
		return done
	}
	return closedDone
}

// memberReport decodes a finished member's persisted report into v, or
// explains why the member has none to offer.
func (s *Server) memberReport(m member, v any) error {
	rep, _ := readReport(s.opts.Store, m.hash)
	if rep == nil {
		reason := "no verification report recorded"
		if view, ok := s.Get(m.jobID); ok && view.State != StateCompleted {
			reason = fmt.Sprintf("ended %s", view.State)
			if view.Error != "" {
				reason += ": " + view.Error
			}
		} else if _, held := s.opts.Store.Get(m.hash); !held {
			reason = "result no longer in the result store"
		}
		return fmt.Errorf("member job %s (%s) %s", m.jobID, m.label, reason)
	}
	if err := json.Unmarshal(rep, v); err != nil {
		return fmt.Errorf("member job %s (%s): undecodable report: %v", m.jobID, m.label, err)
	}
	return nil
}

// MemberView is the member entry of a sweep view; State and Verify reflect
// the live job record and are omitted once the job has been pruned (the
// persisted result keeps the member hashes regardless). Arm and Cores
// locate a scaling member on its ladder and are absent from convergence
// members.
type MemberView struct {
	Arm    string         `json:"arm,omitempty"`
	Cores  int            `json:"cores,omitempty"`
	N      int            `json:"n"`
	JobID  string         `json:"jobId"`
	Hash   string         `json:"hash"`
	State  JobState       `json:"state,omitempty"`
	Verify *VerifySummary `json:"verify,omitempty"`
}

// SweepView is an immutable snapshot of a member-backed derived resource
// for JSON responses.
type SweepView[S any] struct {
	ID       string          `json:"id"`
	Sweep    S               `json:"sweep"`
	Hash     string          `json:"hash"`
	State    JobState        `json:"state"`
	CacheHit bool            `json:"cacheHit"`
	Members  []MemberView    `json:"members,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

func (v SweepView[S]) meta() (string, JobState) { return v.Hash, v.State }

// sweepViewLocked snapshots a sweep, decorating members with their live job
// state where the record still exists.
func sweepViewLocked[S any](s *Server, rec *derived[S]) SweepView[S] {
	v := SweepView[S]{
		ID: rec.ID, Sweep: rec.Spec, Hash: rec.Hash, State: rec.State,
		CacheHit: rec.CacheHit, Result: rec.Result, Error: rec.Err,
	}
	for _, m := range rec.Members {
		mv := MemberView{Arm: m.armName, Cores: m.cores, N: m.n, JobID: m.jobID, Hash: m.hash}
		if job, ok := s.jobs.getLocked(m.jobID); ok {
			mv.State = job.State
			mv.Verify = job.verify()
		}
		v.Members = append(v.Members, mv)
	}
	return v
}

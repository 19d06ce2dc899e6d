package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one op share
// Op; Parent is the ID of the span that caused this one (-1 for a root).
// Track is the row the span is drawn on (a client or the probe's clone).
type span struct {
	ID     int
	Parent int
	Op     int
	Track  int
	Name   string
	Start  time.Duration // since the recorder was made
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: every method returns at once, so the measured code is the
// same on both runs.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu

	// inside, when set, is called inside every span just before it ends.
	// Only the attribution test sets it, to put a known delay into one layer.
	inside func(name string)
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open starts a span now and returns its ID.
func (r *recorder) open(name string, parent, op, track int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Track: track, Name: name, Start: now, End: now})
	return id
}

// restart moves an open span's start to now: the engine probe opens the
// step span first, so the replayed layers can name it as their parent, and
// restarts it when the real step begins.
func (r *recorder) restart(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].Start = now
	r.mu.Unlock()
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	if r.inside != nil {
		r.mu.Lock()
		name := r.spans[id].Name
		r.mu.Unlock()
		r.inside(name)
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durationsMS returns the duration of every span with the given name, in
// milliseconds, in recording order.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}

// traceEvent is one Chrome trace-event; the document below is the object
// form chrome://tracing and ui.perfetto.dev load, the same format
// GET /v1/jobs/{id}/trace serves. Encoded here rather than through
// internal/trace so the benchmark pins no signature it does not measure.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type traceDoc struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"metadata,omitempty"`
}

// writeTrace writes the spans as a Chrome trace-event document. tracks
// names the rows by Track number.
func writeTrace(path, workloadName string, spans []span, tracks map[int]string, meta map[string]string) error {
	doc := traceDoc{DisplayTimeUnit: "ms", Metadata: meta}
	doc.TraceEvents = append(doc.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Args: map[string]string{"name": "benchmark " + workloadName},
	})
	for _, tid := range sortedKeys(tracks) {
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", TID: tid, Args: map[string]string{"name": tracks[tid]},
		})
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			TS: us(s.Start), Dur: us(s.End - s.Start), TID: s.Track,
			Args: map[string]string{
				"id":     strconv.Itoa(s.ID),
				"parent": strconv.Itoa(s.Parent),
				"op":     strconv.Itoa(s.Op),
			},
		})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

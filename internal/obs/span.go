// Span and SpanSet trace per-request and per-job lifecycle phases: a Span
// measures one named stage, a SpanSet accumulates the stages of one
// traced unit (an HTTP request, a job's queue-wait → run → checkpoint →
// verify → persist lifecycle) into an ordered, JSON-serializable record
// the server persists next to the verification report.
package obs

import "time"

// The lifecycle phases of a served job, in the order a job enters them.
// Restore, run, checkpoint and verify are the executor's (internal/runloop
// records them for a local run too); a server adds queue-wait before and
// persist after. Queue-wait through verify are persisted inside the job's
// report JSON; persist happens after the report is written, so it exists
// only in the registry's job_phase_seconds histogram.
const (
	PhaseQueueWait  = "queue-wait"
	PhaseRestore    = "restore"
	PhaseRun        = "run"
	PhaseCheckpoint = "checkpoint"
	PhaseVerify     = "verify"
	PhasePersist    = "persist"
)

// LifecyclePhases lists the lifecycle phases in order: what /statusz prints,
// what job_phase_seconds{phase} is labeled with, and (minus persist) the
// phase features of a cluster analysis.
var LifecyclePhases = []string{
	PhaseQueueWait, PhaseRestore, PhaseRun, PhaseCheckpoint, PhaseVerify, PhasePersist,
}

// Phase is one named stage of a traced lifecycle, in seconds.
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// SpanSet is the recorded lifecycle of one traced unit. The zero value is
// ready to use. Not safe for concurrent use — a lifecycle is owned by the
// goroutine executing it.
type SpanSet struct {
	// Phases are the recorded stages in the order they were added; repeated
	// names accumulate into one phase (a chunked run checkpoints many
	// times, but reports one checkpoint phase).
	Phases []Phase `json:"phases"`
	// Total is the sum of the phase durations.
	Total float64 `json:"total"`
}

// Add accumulates d into the named phase (creating it at the end of the
// order on first use). Negative durations are clamped to zero — a clock
// that steps backwards must not produce negative spans.
func (ss *SpanSet) Add(name string, d time.Duration) {
	ss.AddSeconds(name, d.Seconds())
}

// AddSeconds is Add for a duration already measured in seconds.
func (ss *SpanSet) AddSeconds(name string, seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	ss.Total += seconds
	for i := range ss.Phases {
		if ss.Phases[i].Name == name {
			ss.Phases[i].Seconds += seconds
			return
		}
	}
	ss.Phases = append(ss.Phases, Phase{Name: name, Seconds: seconds})
}

// Seconds returns the accumulated duration of the named phase (0 when it
// was never recorded).
func (ss *SpanSet) Seconds(name string) float64 {
	for _, p := range ss.Phases {
		if p.Name == name {
			return p.Seconds
		}
	}
	return 0
}

// Span measures one in-progress stage; construct with StartSpan and finish
// with End (or EndTo to record into a SpanSet).
type Span struct {
	name  string
	start time.Time
	clock func() time.Time
}

// StartSpan begins measuring a named stage. clock overrides the time
// source (tests); nil means time.Now.
func StartSpan(name string, clock func() time.Time) *Span {
	if clock == nil {
		clock = time.Now
	}
	return &Span{name: name, start: clock(), clock: clock}
}

// End returns the elapsed duration since the span started.
func (s *Span) End() time.Duration { return s.clock().Sub(s.start) }

// EndTo records the elapsed duration into the set under the span's name
// and returns it.
func (s *Span) EndTo(ss *SpanSet) time.Duration {
	d := s.End()
	ss.Add(s.name, d)
	return d
}

// Chrome-trace-event (Perfetto) encoding of measured traces. The document
// produced here is the JSON object format of the Trace Event spec — an
// object with a "traceEvents" array — which chrome://tracing and
// https://ui.perfetto.dev load directly. Viewers ignore unknown top-level
// members, so the POP efficiency comparison rides alongside the events.
//
// Every field that influences the encoded bytes is deterministic: event
// order follows insertion order, map keys marshal sorted, and timestamps
// are exact float64 microseconds derived from persisted artifacts — the
// same inputs always re-encode to byte-identical JSON.
package trace

import "fmt"

// Frozen trace categories. Every slice SliceData emits carries one of
// these (TestDocumentSchema rejects any other category), the same
// frozen-name rule metric families obey — renaming a category is an API
// change, not a refactor.
const (
	// CatPhase tags engine execution slices (hydro phases, halo exchange,
	// collectives).
	CatPhase = "phase"
	// CatLifecycle tags server job-lifecycle slices (queue-wait, restore,
	// run, checkpoint, verify).
	CatLifecycle = "lifecycle"
)

// Event is one Chrome trace-event. Ph "X" is a complete slice with a
// duration; Ph "M" is metadata naming a process or thread. Timestamps and
// durations are microseconds (float64 — the spec permits fractional
// microseconds, and integers would truncate sub-microsecond phases).
type Event struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Perfetto accumulates trace events in emission order. The zero value is
// ready to use; it is not safe for concurrent use (documents are built by
// one goroutine from persisted data).
type Perfetto struct {
	events []Event
}

// Process emits a process_name metadata event: the top-level track group
// label in the viewer.
func (p *Perfetto) Process(pid int, name string) {
	p.events = append(p.events, Event{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]string{"name": name},
	})
}

// Thread emits a thread_name metadata event: the per-row label inside a
// process group (one row per rank).
func (p *Perfetto) Thread(pid, tid int, name string) {
	p.events = append(p.events, Event{
		Name: "thread_name", Ph: "M", PID: pid, TID: tid,
		Args: map[string]string{"name": name},
	})
}

// SliceData emits one complete ("X") slice. start and dur are seconds;
// zero-duration slices are dropped — they carry no information and clutter
// the viewer. The category must be a frozen constant (checked by
// TestDocumentSchema); the name is carried by measured artifacts (phase
// letters of a serial run, lifecycle span names of a persisted report).
func (p *Perfetto) SliceData(cat, name string, pid, tid int, start, dur float64, args map[string]string) {
	if dur <= 0 {
		return
	}
	p.events = append(p.events, Event{
		Name: name, Cat: cat, Ph: "X",
		TS: start * 1e6, Dur: dur * 1e6,
		PID: pid, TID: tid, Args: args,
	})
}

// Events returns the accumulated events in emission order.
func (p *Perfetto) Events() []Event { return p.events }

// POPReport is the wire shape of one POP efficiency analysis (the JSON
// companion of Metrics, which predates the API and stays untagged).
type POPReport struct {
	Ranks              int     `json:"ranks"`
	Runtime            float64 `json:"runtime"`
	AvgUseful          float64 `json:"avgUseful"`
	MaxUseful          float64 `json:"maxUseful"`
	TotalMPI           float64 `json:"totalMPI"`
	LoadBalance        float64 `json:"loadBalance"`
	CommEfficiency     float64 `json:"commEfficiency"`
	ParallelEfficiency float64 `json:"parallelEfficiency"`
}

// Report converts the analysis values to their wire shape.
func (m Metrics) Report() POPReport {
	return POPReport{
		Ranks:              m.Ranks,
		Runtime:            m.Runtime,
		AvgUseful:          m.AvgUseful,
		MaxUseful:          m.MaxUseful,
		TotalMPI:           m.TotalMPI,
		LoadBalance:        m.LoadBalance,
		CommEfficiency:     m.CommEfficiency,
		ParallelEfficiency: m.ParallelEfficiency,
	}
}

// POPComparison reports the POP metrics of a job's measured rank totals
// next to the closed-form modeled prediction for the same job shape — the
// measured-vs-modeled confrontation the paper's §5.2 analysis is about.
type POPComparison struct {
	Measured POPReport  `json:"measured"`
	Modeled  *POPReport `json:"modeled,omitempty"`
}

// Document is the top-level Chrome trace-event JSON object. Metadata keys
// marshal sorted; the pop member is ignored by viewers but carried for API
// consumers.
type Document struct {
	TraceEvents     []Event           `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"metadata,omitempty"`
	POP             *POPComparison    `json:"pop,omitempty"`
}

// Document assembles the measured trace into a loadable Chrome trace-event
// document: pid 0 is the server lifecycle track, pid 1 the engine with one
// thread row per rank. Event order — metadata first, then lifecycle, then
// engine intervals rank-major — is fixed, so equal inputs produce equal
// documents.
func (m Measured) Document(meta map[string]string, pop *POPComparison) Document {
	var p Perfetto
	p.Process(0, "server")
	p.Thread(0, 0, "job lifecycle")
	p.Process(1, "engine")
	nr := 0
	for _, iv := range m.Intervals {
		if iv.Rank+1 > nr {
			nr = iv.Rank + 1
		}
	}
	for r := 0; r < nr; r++ {
		p.Thread(1, r, fmt.Sprintf("rank %d", r))
	}
	for _, iv := range m.Lifecycle {
		p.SliceData(CatLifecycle, iv.Phase, 0, 0, iv.Start, iv.End-iv.Start, nil)
	}
	for _, iv := range m.Intervals {
		p.SliceData(CatPhase, iv.Phase, 1, iv.Rank, iv.Start, iv.End-iv.Start,
			map[string]string{"state": iv.State.String()})
	}
	return Document{TraceEvents: p.Events(), DisplayTimeUnit: "ms", Metadata: meta, POP: pop}
}

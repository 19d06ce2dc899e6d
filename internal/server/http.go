package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/history"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// Handler returns the versioned HTTP API:
//
//	GET  /v1/healthz               liveness probe
//	GET  /v1/scenarios             registered scenarios with defaults
//	POST /v1/jobs                  submit a job (scenario.JobSpec JSON body)
//	POST /v1/jobs/batch            submit an array of specs (per-item outcome)
//	GET  /v1/jobs                  list jobs; ?state= filters, ?limit=/?cursor=
//	                               paginate ({"jobs":[...],"nextCursor":...})
//	GET  /v1/jobs/{id}             job status + progress
//	GET  /v1/jobs/{id}/events      server-sent progress events until terminal
//	POST /v1/jobs/{id}/cancel      terminal cancellation
//	POST /v1/jobs/{id}/kill        simulated crash (job resumes where it stopped)
//	GET  /v1/jobs/{id}/snapshot    final particle state, part binary format
//	GET  /v1/jobs/{id}/metrics     verification report (error norms vs analytic
//	                               reference, plateau, conservation, pass/fail)
//	GET  /v1/jobs/{id}/telemetry   step-telemetry track: downsampled drift/dt/
//	                               h/neighbor/imbalance series + watchdog status
//	GET  /v1/jobs/{id}/telemetry/events  live telemetry samples over SSE
//	GET  /v1/jobs/{id}/trace       measured execution trace assembled from the
//	                               persisted artifacts; ?format=perfetto (Chrome
//	                               trace-event JSON, the default) or paraver
//	                               (ASCII timeline + POP metrics, text/plain)
//	DELETE /v1/jobs/{id}           forget a terminal job record (404/409)
//	GET  /v1/store                 result-store metrics (entries, bytes,
//	                               hit rate, quarantine count)
//	GET  /v1/metrics/history       downsampled registry time series; ?series=
//	                               selects families (comma list), ?window=
//	                               bounds the age (Go duration, grid-aligned)
//	GET  /statusz                  human-readable operational snapshot
//	GET  /metricsz                 Prometheus text exposition of the registry
//
// Each derived-resource kind mounts the same five routes (mountDerived)
// under its collection path:
//
//	kind         path                   POST body                 404 code
//	experiment   /v1/experiments        experiments.Sweep         unknown_experiment
//	scaling      /v1/scaling            experiments.ScalingSweep  unknown_scaling
//	analysis     /v1/analytics/cluster  cluster.Spec              unknown_analysis
//
//	POST   <path>              submit; 202, or 200 for a cache hit
//	GET    <path>              list; ?limit=/?cursor= paginate
//	GET    <path>/{id}         status, members, result
//	GET    <path>/{id}/events  server-sent progress events until terminal
//	DELETE <path>/{id}         forget a terminal record (404/409)
//
// Every error is a structured envelope:
//
//	{"error": {"code": "unknown_job", "message": "...", "details": {...}}}
//
// The pre-/v1 unversioned aliases (POST /jobs, GET /storez, ...) served
// through PR 6 with "Deprecation: true" headers are removed; requests to
// them now 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	type route struct {
		method, path string
		h            http.HandlerFunc
	}
	routes := []route{
		{method: "GET", path: "/v1/healthz", h: s.handleHealthz},
		{method: "GET", path: "/v1/scenarios", h: s.handleScenarios},
		{method: "POST", path: "/v1/jobs", h: submitHandler("spec", s.Submit)},
		{method: "POST", path: "/v1/jobs/batch", h: s.handleSubmitBatch},
		{method: "GET", path: "/v1/jobs", h: s.handleList},
		{method: "GET", path: "/v1/jobs/{id}", h: getHandler(s.Get, unknownJob)},
		{method: "GET", path: "/v1/jobs/{id}/events", h: eventsHandler(s, s.Get, s.Done, unknownJob)},
		{method: "POST", path: "/v1/jobs/{id}/cancel", h: s.handleInterrupt(false)},
		{method: "POST", path: "/v1/jobs/{id}/kill", h: s.handleInterrupt(true)},
		{method: "GET", path: "/v1/jobs/{id}/snapshot", h: s.withJob(s.handleSnapshot)},
		{method: "GET", path: "/v1/jobs/{id}/metrics", h: s.withJob(s.handleMetrics)},
		{method: "GET", path: "/v1/jobs/{id}/telemetry", h: s.handleTelemetry},
		{method: "GET", path: "/v1/jobs/{id}/telemetry/events", h: eventsHandler(s, s.telemetryFrame, s.Done, unknownJob)},
		{method: "GET", path: "/v1/jobs/{id}/trace", h: s.withJob(s.handleTrace)},
		{method: "DELETE", path: "/v1/jobs/{id}", h: s.handleDelete(CodeUnknownJob, s.DeleteJob)},
		{method: "GET", path: "/v1/store", h: s.handleStore},
		{method: "GET", path: "/v1/metrics/history", h: s.handleMetricsHistory},
		{method: "GET", path: "/statusz", h: s.handleStatusz},
		{method: "GET", path: "/metricsz", h: s.handleMetricsz},
	}
	for _, r := range routes {
		mux.HandleFunc(r.method+" "+r.path, r.h)
	}
	mountDerived(mux, &s.Experiments, CodeUnknownExperiment)
	mountDerived(mux, &s.Scaling, CodeUnknownScaling)
	mountDerived(mux, &s.Analyses, CodeUnknownAnalysis)
	return s.instrument(mux)
}

// Stable API error codes of the /v1 error envelope.
const (
	CodeInvalidArgument   = "invalid_argument"
	CodeUnknownScenario   = "unknown_scenario"
	CodeUnknownJob        = "unknown_job"
	CodeUnknownExperiment = "unknown_experiment"
	CodeUnknownScaling    = "unknown_scaling"
	CodeUnknownAnalysis   = "unknown_analysis"
	CodeQueueFull         = "queue_full"
	CodeConflict          = "conflict"
	CodeGone              = "gone"
	CodeNoReport          = "no_report"
	CodeNoTelemetry       = "no_telemetry"
	CodeInternal          = "internal"
)

// APIError is the wire shape of the error envelope's "error" member.
type APIError struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the structured error envelope with a stable code.
func writeError(w http.ResponseWriter, status int, code, message string, details map[string]any) {
	writeJSON(w, status, map[string]APIError{
		"error": {Code: code, Message: message, Details: details},
	})
}

// submitError classifies a submission error into the envelope.
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, CodeQueueFull, err.Error(), nil)
	case errors.Is(err, scenario.ErrUnknown):
		writeError(w, http.StatusNotFound, CodeUnknownScenario, err.Error(), nil)
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error(), nil)
	}
}

// decodeBody strictly decodes a JSON request body of one value and at most
// maxBodyBytes; on failure it writes the invalid_argument envelope (413
// over the limit, 400 otherwise), naming the body as what, and reports
// false.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, what string) (T, bool) {
	var v T
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	if err == nil {
		// One value per body: anything but whitespace after it is an error.
		switch err = dec.Decode(new(json.RawMessage)); {
		case err == io.EOF:
			return v, true
		case !errors.As(err, new(*http.MaxBytesError)):
			err = errors.New("data after the JSON value")
		}
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, CodeInvalidArgument, fmt.Sprintf("decoding %s: %v", what, err), nil)
	return v, false
}

// maxBodyBytes bounds a POST body. The largest legitimate one, a batch of
// MaxBatch specs, is ~100 KB.
const maxBodyBytes = 1 << 20

// The submit, get and events handlers are shared by every resource kind:
// the job routes and mountDerived build theirs from these constructors.

// submitHandler serves a POST that submits one resource: 202 while there
// is something to wait for, 200 when the view is already completed (a cache
// hit), the resource hash on the response header either way. body names the
// request body in decode errors.
func submitHandler[S any, V resourceView](body string, submit func(S) (*V, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spec, ok := decodeBody[S](w, r, body)
		if !ok {
			return
		}
		view, err := submit(spec)
		if err != nil {
			submitError(w, err)
			return
		}
		hash, state := (*view).meta()
		w.Header().Set(HashHeader, hash)
		status := http.StatusAccepted
		if state == StateCompleted {
			status = http.StatusOK
		}
		writeJSON(w, status, view)
	}
}

// getHandler serves one resource's view; unknown writes the kind's 404.
func getHandler[V resourceView](get func(string) (V, bool), unknown func(http.ResponseWriter, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		view, ok := get(r.PathValue("id"))
		if !ok {
			unknown(w, r.PathValue("id"))
			return
		}
		hash, _ := view.meta()
		w.Header().Set(HashHeader, hash)
		writeJSON(w, http.StatusOK, view)
	}
}

// eventsHandler streams a resource's progress as server-sent events: one
// `data: <view JSON>` frame per state/progress change, closing after the
// terminal frame.
func eventsHandler[V resourceView](s *Server, get func(string) (V, bool),
	done func(string) (<-chan struct{}, bool), unknown func(http.ResponseWriter, string)) http.HandlerFunc {

	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		ch, ok := done(id)
		if !ok {
			unknown(w, id)
			return
		}
		s.streamEvents(w, r, ch, func() (any, JobState, bool) {
			view, ok := get(id)
			_, state := view.meta()
			return view, state, ok
		})
	}
}

// withJob resolves the {id} path value to a job view for h, or writes the
// 404.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, JobView)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		view, ok := s.Get(r.PathValue("id"))
		if !ok {
			unknownJob(w, r.PathValue("id"))
			return
		}
		h(w, r, view)
	}
}

// unknownJob writes the 404 envelope of a job id that names no record.
func unknownJob(w http.ResponseWriter, id string) {
	writeError(w, http.StatusNotFound, CodeUnknownJob, fmt.Sprintf("no job %q", id), nil)
}

// listPage is the paginated listing envelope of every kind: the views under
// the kind's list key, then nextCursor — addressing the next page — while
// more remain.
type listPage struct {
	key   string
	items any
	next  string
}

func (p listPage) MarshalJSON() ([]byte, error) {
	items, err := json.Marshal(p.items)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{%q:%s", p.key, items)
	if p.next != "" {
		fmt.Fprintf(&b, `,"nextCursor":%q`, p.next)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// mountDerived registers the five routes of one derived-resource kind;
// unknownCode is the kind's 404 code.
func mountDerived[S any, V resourceView](mux *http.ServeMux, d *Derived[S, V], unknownCode string) {
	k := d.kind
	unknown := func(w http.ResponseWriter, id string) {
		writeError(w, http.StatusNotFound, unknownCode, fmt.Sprintf("no %s %q", k.noun, id), nil)
	}
	mux.HandleFunc("POST "+k.route, submitHandler(k.body, d.Submit))
	mux.HandleFunc("GET "+k.route, func(w http.ResponseWriter, r *http.Request) {
		limit, cursor, err := pageParams(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error(), nil)
			return
		}
		views, next := d.List(cursor, limit)
		writeJSON(w, http.StatusOK, listPage{k.listKey, views, next})
	})
	mux.HandleFunc("GET "+k.route+"/{id}", getHandler(d.Get, unknown))
	// The member states tick as the ladder completes.
	mux.HandleFunc("GET "+k.route+"/{id}/events", eventsHandler(d.s, d.Get, d.Done, unknown))
	mux.HandleFunc("DELETE "+k.route+"/{id}", d.s.handleDelete(unknownCode, d.Delete))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// scenarioInfo is the /v1/scenarios listing entry.
type scenarioInfo struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	Defaults    scenario.Params `json:"defaults"`
	// HasReference marks scenarios scored against an analytic solution —
	// the ones a convergence experiment can sweep.
	HasReference bool `json:"hasReference"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var out []scenarioInfo
	for _, name := range scenario.Names() {
		sc, err := scenario.Get(name)
		if err != nil {
			continue
		}
		out = append(out, scenarioInfo{
			Name: sc.Name, Description: sc.Description, Defaults: sc.Defaults,
			HasReference: sc.Reference != nil,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// MaxBatch bounds one POST /v1/jobs/batch array. Every item — even a cache
// hit or coalesced duplicate — creates a job record, so an uncapped array
// would let a single request grow the job table without limit.
const MaxBatch = 256

// handleSubmitBatch decodes a JSON array of specs and submits each through
// the coalescing path; the response mirrors the array with one {job|error}
// per item. The request as a whole only fails on malformed JSON, an empty
// array, or one longer than MaxBatch.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	specs, ok := decodeBody[[]scenario.JobSpec](w, r, "spec array")
	if !ok {
		return
	}
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "empty batch", nil)
		return
	}
	if len(specs) > MaxBatch {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("batch of %d specs exceeds the %d-item limit", len(specs), MaxBatch),
			map[string]any{"limit": MaxBatch, "got": len(specs)})
		return
	}
	writeJSON(w, http.StatusOK, s.SubmitBatch(specs))
}

// pageParams reads the ?limit= and ?cursor= pagination query parameters.
func pageParams(r *http.Request) (limit int, cursor string, err error) {
	cursor = r.URL.Query().Get("cursor")
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit <= 0 {
			return 0, "", fmt.Errorf("limit must be a positive integer, got %q", raw)
		}
	}
	return limit, cursor, nil
}

// handleList serves GET /v1/jobs with an optional ?state= lifecycle filter
// and cursor pagination.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	state := JobState(r.URL.Query().Get("state"))
	if state != "" && !ValidState(state) {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("unknown state %q (one of queued, running, completed, failed, cancelled)", state),
			map[string]any{"state": string(state)})
		return
	}
	limit, cursor, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error(), nil)
		return
	}
	jobs, next := s.ListPage(state, cursor, limit)
	writeJSON(w, http.StatusOK, listPage{"jobs", jobs, next})
}

func (s *Server) handleInterrupt(kill bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := s.interrupt(id, kill); err != nil {
			if _, ok := s.Get(id); !ok {
				unknownJob(w, id)
				return
			}
			writeError(w, http.StatusConflict, CodeConflict, err.Error(), nil)
			return
		}
		view, _ := s.Get(id)
		writeJSON(w, http.StatusOK, view)
	}
}

// streamEvents is the shared SSE loop behind the /events routes: one
// `data: <view JSON>` frame per observable change (sampled at a short poll
// interval), closing after the terminal frame. view returns the current
// snapshot, its lifecycle state, and whether the resource still exists.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request,
	done <-chan struct{}, view func() (any, JobState, bool)) {

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, "streaming unsupported", nil)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	var last string
	for {
		v, state, ok := view()
		if !ok {
			return
		}
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		if frame := string(b); frame != last {
			last = frame
			if _, err := fmt.Fprintf(w, "data: %s\n\n", frame); err != nil {
				return
			}
			flusher.Flush()
		}
		switch state {
		case StateCompleted, StateFailed, StateCancelled:
			return
		}
		// Wake on terminal state immediately; the ticker only paces
		// progress frames while the resource is live.
		select {
		case <-r.Context().Done():
			return
		case <-done:
		case <-ticker.C:
		}
	}
}

// handleDelete serves the DELETE routes: 204 on success, 404 with the
// resource's unknown-code when absent, 409 conflict while still queued or
// running.
func (s *Server) handleDelete(unknownCode string, del func(string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		err := del(r.PathValue("id"))
		switch {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, unknownCode, err.Error(), nil)
		case errors.Is(err, ErrNotTerminal):
			writeError(w, http.StatusConflict, CodeConflict, err.Error(), nil)
		default:
			writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), nil)
		}
	}
}

// handleMetrics serves the completed job's verification report exactly as
// recorded (the persisted bytes, so restarts serve identical reports).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, view JobView) {
	if view.State != StateCompleted {
		writeError(w, http.StatusConflict, CodeConflict,
			fmt.Sprintf("job %s is %s; metrics require completed", view.ID, view.State),
			map[string]any{"state": string(view.State)})
		return
	}
	report, _ := readReport(s.opts.Store, view.Hash)
	if report == nil {
		s.writeNoResult(w, view, "report", CodeNoReport, "has no verification report recorded")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(report)
}

// handleTelemetry serves the job's flight-recorder track: the persisted
// bytes for completed jobs (byte-identical across cache hits and restarts),
// a live snapshot for running (or killed/failed/cancelled) ones.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	track, ok := s.Telemetry(id)
	if !ok {
		unknownJob(w, id)
		return
	}
	if track == nil {
		view, ok := s.Get(id)
		if !ok {
			unknownJob(w, id)
			return
		}
		s.writeNoResult(w, view, "telemetry", CodeNoTelemetry, "has no telemetry recorded")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(track)
}

// handleTrace serves the completed job's measured execution trace,
// assembled deterministically from the persisted report and telemetry (an
// identical resubmission or a post-restart fetch returns byte-identical
// bytes). ?format=perfetto (default) is Chrome trace-event JSON loadable in
// Perfetto / chrome://tracing; ?format=paraver is the ASCII timeline.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, view JobView) {
	id := view.ID
	format := r.URL.Query().Get("format")
	if format == "" {
		format = TraceFormatPerfetto
	}
	if format != TraceFormatPerfetto && format != TraceFormatParaver {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("unknown trace format %q (one of %s, %s)",
				format, TraceFormatPerfetto, TraceFormatParaver),
			map[string]any{"format": format})
		return
	}
	b, completed, err := s.Trace(id, format)
	if !completed {
		writeError(w, http.StatusConflict, CodeConflict,
			fmt.Sprintf("job %s is %s; trace requires completed", id, view.State),
			map[string]any{"state": string(view.State)})
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), nil)
		return
	}
	if b == nil {
		s.writeNoResult(w, view, "report", CodeNoReport, "has no report recorded to derive a trace from")
		return
	}
	if format == TraceFormatParaver {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// handleMetricsHistory serves the registry's downsampled time series:
// ?series= selects family names (comma-separated), ?window= bounds sample
// age (a Go duration, aligned up to the sampling grid).
func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	var sel history.Selection
	if raw := r.URL.Query().Get("series"); raw != "" {
		sel.Names = strings.Split(raw, ",")
	}
	if raw := r.URL.Query().Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument,
				fmt.Sprintf("window must be a positive duration, got %q", raw), nil)
			return
		}
		sel.Window = d
	}
	writeJSON(w, http.StatusOK, s.hist.Query(sel))
}

// telemetryEvent is one SSE frame of the live telemetry stream: the job's
// lifecycle context plus the most recent flight-recorder sample (nil until
// the first step completes).
type telemetryEvent struct {
	Job       string            `json:"job"`
	State     JobState          `json:"state"`
	Telemetry string            `json:"telemetry,omitempty"`
	Sample    *telemetry.Sample `json:"sample,omitempty"`
}

func (e telemetryEvent) meta() (string, JobState) { return "", e.State }

// telemetryFrame is the current frame of a job's telemetry stream
// (eventsHandler deduplicates, so one frame goes out per new sample). A
// kill keeps the stream open — the job requeues and resumes; only
// completion, failure, or cancel end it.
func (s *Server) telemetryFrame(id string) (telemetryEvent, bool) {
	view, ok := s.Get(id)
	ev := telemetryEvent{Job: view.ID, State: view.State, Telemetry: view.Telemetry}
	if smp, ok := s.TelemetryLatest(id); ok {
		ev.Sample = &smp
	}
	return ev, ok
}

// handleStore serves the result-store metrics.
func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.opts.Store.Stats())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, view JobView) {
	id := view.ID
	write, size, ok := s.snapshotBody(id)
	if !ok && view.State != StateCompleted {
		writeError(w, http.StatusConflict, CodeConflict,
			fmt.Sprintf("job %s is %s; snapshot requires completed", id, view.State),
			map[string]any{"state": string(view.State)})
		return
	}
	if ok {
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.FormatInt(size, 10))
		h.Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.sph", id))
		n, err := write(w)
		if err == nil {
			return
		}
		if n > 0 {
			panic(http.ErrAbortHandler) // part is out: a short body, never a whole wrong one
		}
		h.Del("Content-Length")
		h.Del("Content-Disposition")
	}
	// Completed, but the result store has evicted, lost or (on this very
	// read) quarantined the snapshot: resubmitting the spec recomputes.
	writeGone(w, id, "snapshot")
}

// writeGone answers 410 for a completed job whose result (what names the
// part asked for) the store no longer holds.
func writeGone(w http.ResponseWriter, id, what string) {
	writeError(w, http.StatusGone, CodeGone,
		fmt.Sprintf("job %s %s no longer in the result store; resubmit to recompute", id, what), nil)
}

// writeNoResult answers for a job without the report or track asked for:
// 410 gone, as for its snapshot, when the job completed and the store no
// longer holds its result, else 404 with code and "job <id> <msg>".
func (s *Server) writeNoResult(w http.ResponseWriter, view JobView, what, code, msg string) {
	if view.State == StateCompleted {
		if _, held := s.opts.Store.Get(view.Hash); !held {
			writeGone(w, view.ID, what)
			return
		}
	}
	writeError(w, http.StatusNotFound, code, fmt.Sprintf("job %s %s", view.ID, msg), nil)
}

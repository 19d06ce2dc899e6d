// Package client is the reusable Go client of the sphexa-serve /v1 API:
// typed job submission (scenario.JobSpec), batch submission, waits that
// follow each resource's /events stream, snapshot and verification-report
// retrieval, step-telemetry tracks with live SSE streaming, measured trace
// export (Perfetto / Paraver) with metrics-history queries, convergence
// experiments (experiments.Sweep), fleet-clustering analytics
// (cluster.Spec), cursor pagination, and structured decoding of the API's
// error envelope into *APIError. The CLIs
// (cmd/sphexa -server, cmd/sphexa-smoke) and the server's own httptest
// suites all talk to the API through it.
//
// The request/response vocabulary deliberately reuses the server's spec
// types (internal/scenario, internal/experiments), so the client is
// importable from anywhere in this module but not from other modules (the
// Go internal rule); an external consumer would talk to the documented
// wire format directly.
package client

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Client talks to one sphexa-serve instance. The zero value is not usable;
// construct with New.
type Client struct {
	base string
	http *http.Client
	// retry, when non-nil, re-attempts submissions rejected with
	// queue_full.
	retry *RetryPolicy
	// requestID overrides per-request ID generation (tracing contexts that
	// already own a correlation ID).
	requestID func() string
}

// RetryPolicy backs off and resubmits when the server's job queue is full
// (the queue_full error code, HTTP 503). Delays grow exponentially from
// BaseDelay, are capped at MaxDelay, and carry full jitter (a uniformly
// random fraction of the computed delay), so a thundering herd of clients
// spreads out instead of re-colliding.
type RetryPolicy struct {
	// MaxAttempts bounds total tries, the first included (<= 1 disables
	// retrying).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps a single wait (default 5s).
	MaxDelay time.Duration
}

func (p *RetryPolicy) defaults() {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
}

// delay computes the jittered wait before retry attempt (1-based).
func (p *RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 { // <= 0: shift overflow
		d = p.MaxDelay
	}
	// Full jitter: uniform in (0, d].
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// RequestIDHeader is the correlation header: the client sends one per
// request (honoring WithRequestID, generating otherwise) and the server
// echoes it, so a failed call can be matched to the server's request log.
const RequestIDHeader = "X-Request-Id"

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetry makes the Submit methods back off and retry when the server
// rejects a submission with queue_full, per the policy. Off by default —
// callers that want the 503 surfaced (load shedders, tests) keep it.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) {
		p.defaults()
		c.retry = &p
	}
}

// WithRequestID sets the generator of per-request correlation IDs (called
// once per request). The default generates a fresh random ID each time.
func WithRequestID(gen func() string) Option {
	return func(c *Client) { c.requestID = gen }
}

// New returns a client for the server at base (e.g. "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		http: http.DefaultClient,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a structured /v1 error envelope, decoded. It satisfies the
// error interface, so callers can errors.As for the stable Code.
type APIError struct {
	Status  int            `json:"-"` // HTTP status
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
	// RequestID is the correlation ID the failed exchange ran under (as
	// echoed by the server, falling back to the ID the client sent), for
	// matching against the server's request log.
	RequestID string `json:"-"`
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("api error %d (%s): %s", e.Status, e.Code, e.Message)
	if e.RequestID != "" {
		msg += fmt.Sprintf(" [request %s]", e.RequestID)
	}
	return msg
}

// Job states, mirroring the server's lifecycle.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// TerminalState reports whether a job or experiment state is final.
func TerminalState(state string) bool {
	return state == StateCompleted || state == StateFailed || state == StateCancelled
}

// Progress mirrors the server's job progress.
type Progress struct {
	Step    int     `json:"step"`
	Total   int     `json:"total"`
	SimTime float64 `json:"simTime"`
	DT      float64 `json:"dt"`
}

// VerifySummary is the compact verification rollup on job views.
type VerifySummary struct {
	Reference string  `json:"reference,omitempty"`
	Pass      bool    `json:"pass"`
	L1Density float64 `json:"l1Density,omitempty"`
}

// Job is the wire shape of a job view.
type Job struct {
	ID       string           `json:"id"`
	Spec     scenario.JobSpec `json:"spec"`
	Hash     string           `json:"hash"`
	State    string           `json:"state"`
	Progress Progress         `json:"progress"`
	Error    string           `json:"error,omitempty"`
	CacheHit bool             `json:"cacheHit"`
	Restarts int              `json:"restarts"`
	Verify   *VerifySummary   `json:"verify,omitempty"`
	// Telemetry is the physics-watchdog rollup ("ok"/"tripped"; empty
	// before execution starts or for pre-telemetry store entries).
	Telemetry string `json:"telemetry,omitempty"`
	// Anomaly is set when the most recent cluster analysis covering this
	// job's result assigned it to the improper noise component.
	Anomaly *AnomalyMark `json:"anomaly,omitempty"`
}

// AnomalyMark is the anomaly rollup a flagged job carries: which analysis
// flagged it and the posterior probability of noise membership.
type AnomalyMark struct {
	Analysis  string  `json:"analysis"`
	Scenario  string  `json:"scenario,omitempty"`
	NoiseProb float64 `json:"noiseProb"`
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool { return TerminalState(j.State) }

// BatchItem is the per-spec outcome of a batch submission.
type BatchItem struct {
	Job   *Job   `json:"job,omitempty"`
	Error string `json:"error,omitempty"`
}

// ScenarioInfo is one /v1/scenarios listing entry.
type ScenarioInfo struct {
	Name         string          `json:"name"`
	Description  string          `json:"description"`
	Defaults     scenario.Params `json:"defaults"`
	HasReference bool            `json:"hasReference"`
}

// JobPage is one page of the job listing.
type JobPage struct {
	Jobs       []Job  `json:"jobs"`
	NextCursor string `json:"nextCursor,omitempty"`
}

// Member is one ladder point of a sweep view; Arm and Cores locate a scaling
// member on its ladder and are absent from convergence members.
type Member struct {
	Arm    string         `json:"arm,omitempty"`
	Cores  int            `json:"cores,omitempty"`
	N      int            `json:"n"`
	JobID  string         `json:"jobId"`
	Hash   string         `json:"hash"`
	State  string         `json:"state,omitempty"`
	Verify *VerifySummary `json:"verify,omitempty"`
}

// Sweep is the wire shape of a member-backed derived resource: S is the
// sweep spec, R the persisted result it decodes once completed.
type Sweep[S, R any] struct {
	ID       string   `json:"id"`
	Sweep    S        `json:"sweep"`
	Hash     string   `json:"hash"`
	State    string   `json:"state"`
	CacheHit bool     `json:"cacheHit"`
	Members  []Member `json:"members,omitempty"`
	Result   *R       `json:"result,omitempty"`
	Error    string   `json:"error,omitempty"`
}

// Terminal reports whether the sweep has reached a final state.
func (e *Sweep[S, R]) Terminal() bool { return TerminalState(e.State) }

// Experiment is a convergence experiment view; Result is the norm-vs-N
// regression.
type Experiment = Sweep[experiments.Sweep, experiments.Result]

// Scaling is a scaling-experiment view; Result is the speedup / efficiency
// aggregation.
type Scaling = Sweep[experiments.ScalingSweep, experiments.ScalingResult]

// ExperimentPage is one page of the experiment listing.
type ExperimentPage struct {
	Experiments []Experiment `json:"experiments"`
	NextCursor  string       `json:"nextCursor,omitempty"`
}

// ListOptions paginate and filter the list endpoints.
type ListOptions struct {
	// State filters jobs by lifecycle state (ignored for experiments).
	State string
	// Cursor resumes a prior page's NextCursor.
	Cursor string
	// Limit bounds the page size (0 = server default).
	Limit int
}

func (o ListOptions) query() string {
	q := url.Values{}
	if o.State != "" {
		q.Set("state", o.State)
	}
	if o.Cursor != "" {
		q.Set("cursor", o.Cursor)
	}
	if o.Limit > 0 {
		q.Set("limit", strconv.Itoa(o.Limit))
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// send issues one request under a fresh correlation ID and returns the
// response of a 2xx exchange; anything else is decoded into *APIError.
func (c *Client) send(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	reqID := ""
	if c.requestID != nil {
		reqID = c.requestID()
	}
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	req.Header.Set(RequestIDHeader, reqID)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeError(resp, reqID)
	}
	return resp, nil
}

// do issues one request and decodes the response into out (unless nil).
// Non-2xx responses decode the error envelope into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fetch issues one request and decodes the JSON response into a fresh T.
func fetch[T any](ctx context.Context, c *Client, method, path string, body any) (*T, error) {
	var out T
	if err := c.do(ctx, method, path, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// raw issues one GET and returns the response bytes exactly as served.
func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// CodeQueueFull is the stable error code of a submission rejected because
// the server's job queue is full (HTTP 503) — the one the retry policy
// keys on.
const CodeQueueFull = "queue_full"

// submit issues one submission request, retrying queue_full rejections per
// the configured policy with jittered exponential backoff. The wait
// respects ctx: cancellation during a backoff returns immediately with
// both the rejection and the context error joined.
func submit[T any](ctx context.Context, c *Client, path string, body any) (*T, error) {
	attempt := 1
	for {
		out, err := fetch[T](ctx, c, http.MethodPost, path, body)
		var apiErr *APIError
		if err == nil || c.retry == nil || attempt >= c.retry.MaxAttempts ||
			!errors.As(err, &apiErr) || apiErr.Code != CodeQueueFull {
			return out, err
		}
		select {
		case <-ctx.Done():
			return nil, errors.Join(err, ctx.Err())
		case <-time.After(c.retry.delay(attempt)):
		}
		attempt++
	}
}

// follow reads the server-sent events of path, decoding every `data:`
// frame into a fresh T and handing it to fn, until the stream ends, fn
// returns false, or ctx is cancelled. A frame is read whole, however long:
// the line buffer grows to the frame.
func follow[T any](ctx context.Context, c *Client, path string, fn func(*T) bool) error {
	resp, err := c.send(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			return nil // a cut last line is no frame
		} else if err != nil {
			// A context cancellation surfaces as a read error on the body;
			// report the cause rather than the transport error.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("client: reading %s: %w", path, err)
		}
		frame, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		v := new(T)
		if err := json.Unmarshal(frame, v); err != nil {
			return fmt.Errorf("client: decoding %s frame: %w", path, err)
		}
		if !fn(v) {
			return nil
		}
	}
}

// watch follows the /events stream of the resource at path to its terminal
// frame and returns that view, handing fn (when non-nil) every frame on the
// way. A stream that ends before a terminal frame is reopened; its first
// frame is the current view, so nothing is missed. An open that fails
// returns its error; when ctx ends, the last view seen returns with
// ctx.Err().
func watch[T any, P interface {
	*T
	Terminal() bool
}](ctx context.Context, c *Client, path string, fn func(*T)) (*T, error) {
	var last *T
	for last == nil || !P(last).Terminal() {
		err := follow(ctx, c, path+"/events", func(v *T) bool {
			if last = v; fn != nil {
				fn(v)
			}
			return !P(v).Terminal()
		})
		if err != nil {
			return last, cmp.Or(ctx.Err(), err)
		}
	}
	return last, nil
}

// decodeError turns a non-2xx response into *APIError, degrading gracefully
// when the body is not an envelope. The error carries the exchange's
// correlation ID: the server's echo when present, else the ID that was sent.
func decodeError(resp *http.Response, sentID string) error {
	reqID := resp.Header.Get(RequestIDHeader)
	if reqID == "" {
		reqID = sentID
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.Unmarshal(b, &env); err == nil && env.Error.Code != "" {
		e := env.Error
		e.Status = resp.StatusCode
		e.RequestID = reqID
		return &e
	}
	return &APIError{Status: resp.StatusCode, Code: "internal",
		Message: strings.TrimSpace(string(b)), RequestID: reqID}
}

// Health probes GET /v1/healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Scenarios lists the registered scenarios.
func (c *Client) Scenarios(ctx context.Context) ([]ScenarioInfo, error) {
	var out []ScenarioInfo
	err := c.do(ctx, http.MethodGet, "/v1/scenarios", nil, &out)
	return out, err
}

// Submit posts one typed job spec; a completed response is a cache hit.
// With a retry policy configured, queue_full rejections back off and
// resubmit.
func (c *Client) Submit(ctx context.Context, spec scenario.JobSpec) (*Job, error) {
	return submit[Job](ctx, c, "/v1/jobs", spec)
}

// SubmitBatch posts an array of specs; outcomes are per-item (per-item
// queue_full errors are reported, not retried — only a whole-request
// rejection backs off).
func (c *Client) SubmitBatch(ctx context.Context, specs []scenario.JobSpec) ([]BatchItem, error) {
	out, err := submit[[]BatchItem](ctx, c, "/v1/jobs/batch", specs)
	if err != nil {
		return nil, err
	}
	return *out, nil
}

// Job fetches one job view.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	return fetch[Job](ctx, c, http.MethodGet, "/v1/jobs/"+id, nil)
}

// Jobs fetches one page of the job listing.
func (c *Client) Jobs(ctx context.Context, opts ListOptions) (*JobPage, error) {
	return fetch[JobPage](ctx, c, http.MethodGet, "/v1/jobs"+opts.query(), nil)
}

// WaitJob follows the job's events to a terminal state (or ctx expiry).
func (c *Client) WaitJob(ctx context.Context, id string) (*Job, error) {
	return c.WatchJob(ctx, id, nil)
}

// WatchJob is WaitJob handing fn (when non-nil) every view on the way: one
// per state or progress change, the terminal one last.
func (c *Client) WatchJob(ctx context.Context, id string, fn func(*Job)) (*Job, error) {
	return watch(ctx, c, "/v1/jobs/"+id, fn)
}

// Cancel terminally cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	return fetch[Job](ctx, c, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil)
}

// Kill simulates a crash of a running job (it resumes from its checkpoint).
func (c *Client) Kill(ctx context.Context, id string) (*Job, error) {
	return fetch[Job](ctx, c, http.MethodPost, "/v1/jobs/"+id+"/kill", nil)
}

// Snapshot downloads the completed job's final particle state (part binary
// checkpoint format).
func (c *Client) Snapshot(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/v1/jobs/"+id+"/snapshot")
}

// Metrics fetches the completed job's verification report, decoded.
func (c *Client) Metrics(ctx context.Context, id string) (*verify.Report, error) {
	return fetch[verify.Report](ctx, c, http.MethodGet, "/v1/jobs/"+id+"/metrics", nil)
}

// RawMetrics fetches the verification report bytes exactly as persisted.
func (c *Client) RawMetrics(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/v1/jobs/"+id+"/metrics")
}

// SubmitExperiment posts a convergence sweep; a completed response is a
// cache hit served from the persisted regression.
func (c *Client) SubmitExperiment(ctx context.Context, sw experiments.Sweep) (*Experiment, error) {
	return submit[Experiment](ctx, c, "/v1/experiments", sw)
}

// Experiment fetches one experiment view.
func (c *Client) Experiment(ctx context.Context, id string) (*Experiment, error) {
	return fetch[Experiment](ctx, c, http.MethodGet, "/v1/experiments/"+id, nil)
}

// Experiments fetches one page of the experiment listing.
func (c *Client) Experiments(ctx context.Context, opts ListOptions) (*ExperimentPage, error) {
	return fetch[ExperimentPage](ctx, c, http.MethodGet, "/v1/experiments"+opts.query(), nil)
}

// WaitExperiment follows the experiment's events to a terminal state.
func (c *Client) WaitExperiment(ctx context.Context, id string) (*Experiment, error) {
	return watch[Experiment](ctx, c, "/v1/experiments/"+id, nil)
}

// ScalingPage is one page of the scaling-experiment listing.
type ScalingPage struct {
	Scaling    []Scaling `json:"scaling"`
	NextCursor string    `json:"nextCursor,omitempty"`
}

// SubmitScaling posts a scaling sweep; a completed response is a cache hit
// served from the persisted result.
func (c *Client) SubmitScaling(ctx context.Context, sw experiments.ScalingSweep) (*Scaling, error) {
	return submit[Scaling](ctx, c, "/v1/scaling", sw)
}

// Scaling fetches one scaling-experiment view.
func (c *Client) Scaling(ctx context.Context, id string) (*Scaling, error) {
	return fetch[Scaling](ctx, c, http.MethodGet, "/v1/scaling/"+id, nil)
}

// Scalings fetches one page of the scaling-experiment listing.
func (c *Client) Scalings(ctx context.Context, opts ListOptions) (*ScalingPage, error) {
	return fetch[ScalingPage](ctx, c, http.MethodGet, "/v1/scaling"+opts.query(), nil)
}

// WaitScaling follows the scaling experiment's events to a terminal state.
func (c *Client) WaitScaling(ctx context.Context, id string) (*Scaling, error) {
	return watch[Scaling](ctx, c, "/v1/scaling/"+id, nil)
}

// ClusterAnalysis is the wire shape of a fleet-clustering analysis view
// (POST /v1/analytics/cluster). Result is decoded from the persisted
// clustering when the analysis is completed.
type ClusterAnalysis struct {
	ID       string          `json:"id"`
	Spec     cluster.Spec    `json:"spec"`
	Hash     string          `json:"hash"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cacheHit"`
	Jobs     int             `json:"jobs"`
	Result   *cluster.Result `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// Terminal reports whether the analysis has reached a final state.
func (a *ClusterAnalysis) Terminal() bool { return TerminalState(a.State) }

// AnalyticsPage is one page of the cluster-analysis listing.
type AnalyticsPage struct {
	Analyses   []ClusterAnalysis `json:"analyses"`
	NextCursor string            `json:"nextCursor,omitempty"`
}

// SubmitCluster posts a cluster spec over the server's persisted
// verification corpus; a completed response is either a byte-identical
// cache hit (unchanged corpus) or awaits the fit via WaitCluster.
func (c *Client) SubmitCluster(ctx context.Context, sp cluster.Spec) (*ClusterAnalysis, error) {
	return submit[ClusterAnalysis](ctx, c, "/v1/analytics/cluster", sp)
}

// ClusterAnalysis fetches one cluster-analysis view.
func (c *Client) ClusterAnalysis(ctx context.Context, id string) (*ClusterAnalysis, error) {
	return fetch[ClusterAnalysis](ctx, c, http.MethodGet, "/v1/analytics/cluster/"+id, nil)
}

// ClusterAnalyses fetches one page of the cluster-analysis listing.
func (c *Client) ClusterAnalyses(ctx context.Context, opts ListOptions) (*AnalyticsPage, error) {
	return fetch[AnalyticsPage](ctx, c, http.MethodGet, "/v1/analytics/cluster"+opts.query(), nil)
}

// WaitCluster follows the cluster analysis's events to a terminal state.
func (c *Client) WaitCluster(ctx context.Context, id string) (*ClusterAnalysis, error) {
	return watch[ClusterAnalysis](ctx, c, "/v1/analytics/cluster/"+id, nil)
}

// DeleteCluster forgets a terminal cluster-analysis record.
func (c *Client) DeleteCluster(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/analytics/cluster/"+id, nil, nil)
}

// DeleteJob forgets a terminal job record (404 for unknown ids, 409 while
// queued or running). The stored result stays addressable by spec hash.
func (c *Client) DeleteJob(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// DeleteExperiment forgets a terminal convergence-experiment record.
func (c *Client) DeleteExperiment(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/experiments/"+id, nil, nil)
}

// DeleteScaling forgets a terminal scaling-experiment record.
func (c *Client) DeleteScaling(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/scaling/"+id, nil, nil)
}

// StoreStats fetches the result-store metrics.
func (c *Client) StoreStats(ctx context.Context) (*store.Stats, error) {
	return fetch[store.Stats](ctx, c, http.MethodGet, "/v1/store", nil)
}

// Telemetry fetches a job's flight-recorder track: the downsampled
// conservation-drift / dt / smoothing-length / neighbor / imbalance series
// with the watchdog rollup. Completed jobs serve the persisted track
// (byte-identical across cache hits); live jobs serve a snapshot.
func (c *Client) Telemetry(ctx context.Context, id string) (*telemetry.Track, error) {
	return fetch[telemetry.Track](ctx, c, http.MethodGet, "/v1/jobs/"+id+"/telemetry", nil)
}

// RawTelemetry fetches the telemetry track bytes exactly as persisted.
func (c *Client) RawTelemetry(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/v1/jobs/"+id+"/telemetry")
}

// TelemetryEvent is one frame of the live telemetry stream: the job's
// lifecycle context plus its most recent flight-recorder sample (nil until
// the first step completes).
type TelemetryEvent struct {
	Job       string            `json:"job"`
	State     string            `json:"state"`
	Telemetry string            `json:"telemetry,omitempty"`
	Sample    *telemetry.Sample `json:"sample,omitempty"`
}

// StreamTelemetry follows GET /v1/jobs/{id}/telemetry/events, invoking fn
// for every server-sent frame until the stream ends (the job turned
// terminal), fn returns false, or ctx is cancelled. A kill-requeue does not
// end the stream — the job resumes and frames keep flowing.
func (c *Client) StreamTelemetry(ctx context.Context, id string, fn func(TelemetryEvent) bool) error {
	return follow(ctx, c, "/v1/jobs/"+id+"/telemetry/events", func(ev *TelemetryEvent) bool { return fn(*ev) })
}

// Trace export formats of GET /v1/jobs/{id}/trace (mirroring the server's).
const (
	TraceFormatPerfetto = "perfetto"
	TraceFormatParaver  = "paraver"
)

// JobTrace fetches the completed job's measured execution trace decoded as
// a Chrome trace-event document (the perfetto format): per-rank per-phase
// slices assembled from the persisted report and telemetry, with measured
// POP efficiency metrics beside the modeled prediction. The server derives
// the document deterministically, so cache-hit resubmissions decode to the
// same trace.
func (c *Client) JobTrace(ctx context.Context, id string) (*trace.Document, error) {
	return fetch[trace.Document](ctx, c, http.MethodGet, "/v1/jobs/"+id+"/trace?format="+TraceFormatPerfetto, nil)
}

// RawJobTrace fetches the trace bytes exactly as the server renders them
// (perfetto JSON or the paraver text timeline) — the byte-identity
// invariant checks compare these.
func (c *Client) RawJobTrace(ctx context.Context, id, format string) ([]byte, error) {
	path := "/v1/jobs/" + id + "/trace"
	if format != "" {
		path += "?format=" + url.QueryEscape(format)
	}
	return c.raw(ctx, path)
}

// HistorySelection filters a GET /v1/metrics/history query.
type HistorySelection struct {
	// Series keeps only the listed metric families; empty keeps all.
	Series []string
	// Window bounds sample age (aligned up to the server's sampling grid);
	// zero keeps the full retained window.
	Window time.Duration
}

// MetricsHistory fetches the server's downsampled metrics time series:
// counters as per-second rates, gauges raw, histograms as trimmed-quantile
// digests, each series bounded by stride-doubling downsampling.
func (c *Client) MetricsHistory(ctx context.Context, sel HistorySelection) (*history.Snapshot, error) {
	q := url.Values{}
	if len(sel.Series) > 0 {
		q.Set("series", strings.Join(sel.Series, ","))
	}
	if sel.Window > 0 {
		q.Set("window", sel.Window.String())
	}
	path := "/v1/metrics/history"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	return fetch[history.Snapshot](ctx, c, http.MethodGet, path, nil)
}

// Package server turns the mini-app into simulation-as-a-service: an HTTP
// job subsystem that accepts named scenario specs (internal/scenario), runs
// them through the job executor (internal/runloop) on a bounded worker
// pool, streams per-step progress, caches completed results by canonical
// spec hash, and serves final particle snapshots in the part binary
// checkpoint format. A killed job resumes from the state its run stopped
// at instead of recomputing from scratch: the job holds that state's frame
// in memory while it waits in the queue, and drops it when the resumed run
// starts or the job ends. A submitted job's first run starts from step 0,
// and the server writes no checkpoint file.
//
// Completed results live in a result store (internal/store), and the
// in-memory cache is a metadata layer: snapshot, report and track bytes
// persist on disk, survive restarts, and are read from the store's
// CRC-verified records; the store's TTL + size-capped LRU policy bounds
// the footprint. A result the store did not keep is an evicted one: its
// job keeps its view, and its bytes answer 410 gone. A completed job is a
// record and a pointer to its hash's shared result; repeated cache hits of
// a hash share one hit record, whose lifetime restarts at each hit, so
// reads do not grow the job table, and the table is pruned of terminal jobs
// older than JobTTL.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/part"
	"repro/internal/runloop"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// JobState enumerates the lifecycle of a submitted job.
type JobState string

// Job lifecycle states. A killed job returns to StateQueued (crash-restart
// semantics); an explicitly cancelled one terminates in StateCancelled.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Progress is the externally visible execution state of a job.
type Progress struct {
	Step    int     `json:"step"`    // steps completed so far (incl. restored)
	Total   int     `json:"total"`   // total steps requested
	SimTime float64 `json:"simTime"` // cumulative simulated physical time
	DT      float64 `json:"dt"`      // last step's dt
}

// Job is one submitted simulation. All mutable fields are guarded by the
// owning Server's mutex; handlers read them through snapshots. The embedded
// record carries ID, Hash, State, Err and CacheHit. A completed job is that
// record and a pointer to the result every job of its hash shares (plus the
// outcome of its run if it ran); repeated hits of a hash share one such Job,
// whose lifetime restarts at each hit. Any other job that ran carries its
// execution state: a failed or cancelled one serves its live telemetry as a
// post-mortem.
type Job struct {
	record
	// res is the completed result, shared through the memory layer by every
	// job of the hash: set at registration for a cache hit, at completion
	// for a run.
	res *cachedResult
	// run is allocated when the job is queued, released when it completes.
	run *execution
	// end is what a completed run keeps of its execution.
	end *outcome
}

// outcome is what a completed run keeps of its execution: the scalars its
// view reads. Its last telemetry frame reads the stored track.
type outcome struct {
	dt              float64 // the last step's
	restarts        int
	telemetryStatus string
}

// execution is the state of a job that runs.
type execution struct {
	spec     scenario.JobSpec
	progress Progress
	// restarts counts how many times the job resumed after a kill.
	restarts int
	// held is the state a kill's requeue keeps for the resumed run:
	// part.Set.AppendFrame's bytes of the synchronized particles, and their
	// step and sim time. Its frame is nil at any other time.
	held struct {
		frame   []byte
		step    int
		simTime float64
	}
	// telemetryStatus is the physics-watchdog rollup ("ok" or "tripped");
	// empty until the job starts executing.
	telemetryStatus string

	// rec is the job's flight recorder, created when execution first starts
	// and surviving kill-requeues (the same Job object re-enters the queue,
	// so the recorder resumes where the held state does).
	rec *telemetry.Recorder

	cancel context.CancelFunc
	// killed distinguishes a simulated kill (resume from the held state)
	// from an explicit cancel (terminal).
	killed bool
	// submittedAt is when the job entered the queue (reset on a
	// kill-requeue); the queue-wait span is measured against it.
	submittedAt time.Time
	// spans accumulates the job's lifecycle trace across restart attempts;
	// the completed trace is persisted inside the report JSON.
	spans obs.SpanSet
}

// verify is the job's verification rollup: nil until completion, and for
// results stored without a report.
func (j *Job) verify() *VerifySummary {
	if j.res == nil {
		return nil
	}
	return j.res.summary
}

// recorder is the job's flight recorder, nil before execution starts and
// for a cache hit.
func (j *Job) recorder() *telemetry.Recorder {
	if j.run == nil {
		return nil
	}
	return j.run.rec
}

// VerifySummary is the compact verification rollup carried by job views:
// the full Report is served by GET /jobs/{id}/metrics, this is the
// at-a-glance line for job listings and batch responses.
type VerifySummary struct {
	// Reference names the analytic solution ("" = conservation only).
	Reference string `json:"reference,omitempty"`
	// Pass reports the report's overall acceptance outcome.
	Pass bool `json:"pass"`
	// L1Density is the trimmed relative L1 density error against the
	// reference (0 when there is none).
	L1Density float64 `json:"l1Density,omitempty"`
}

// JobView is an immutable snapshot of a job for JSON responses.
type JobView struct {
	ID       string           `json:"id"`
	Spec     scenario.JobSpec `json:"spec"`
	Hash     string           `json:"hash"`
	State    JobState         `json:"state"`
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

// cachedResult is the in-memory layer of the result cache: metadata and
// rollups, never bytes; snapshot, report and track live in the store alone.
// Every completed job of the hash points at its entry, so a completed job
// keeps no spec, progress or rollup of its own.
type cachedResult struct {
	// spec and hash are shared by every cache-hit job (equal hashes mean
	// equal canonical specs).
	spec            scenario.JobSpec
	hash            string
	particles       int
	checksum        uint64
	simTime         float64
	steps           int
	summary         *VerifySummary
	telemetryStatus string
}

// Options configures a Server.
type Options struct {
	// Workers bounds concurrent simulations (default 2).
	Workers int
	// Deprecated: DataDir is ignored. A killed job's state stays in
	// memory, and the server writes no checkpoint file.
	DataDir string
	// Store persists completed results across restarts. Required: New
	// panics without one.
	Store *store.Store
	// JobTTL prunes completed/failed/cancelled jobs from the job table
	// this long after they turned terminal; 0 disables pruning.
	JobTTL time.Duration
	// Clock overrides the time source (tests); nil means time.Now.
	Clock func() time.Time
	// Logger receives structured request/job lifecycle lines; nil discards
	// them (tests stay quiet; the serve binary passes a real handler).
	Logger *slog.Logger
	// FaultInjection, when non-nil, is called before every serial-backend
	// telemetry sample with the 1-based step and the live particle state —
	// a test hook for corrupting state to exercise the physics watchdogs
	// (NaNFault is the one sphexa-serve -inject-nan installs).
	FaultInjection func(step int, ps *part.Set)
	// HistoryInterval is the metrics-history sampling cadence (default
	// history.DefaultInterval); negative disables the background sampler
	// (tests then drive SampleHistory by hand).
	HistoryInterval time.Duration
}

// The poisoned run: the one known anomaly fleet analytics must flag end to
// end. A serial sedov job requesting NaNFaultN particles (the 5³ lattice,
// realized exactly) run for NaNFaultStep steps gets a NaN internal energy
// after its final step, so it still completes with its telemetry tripped.
const (
	NaNFaultN    = 125
	NaNFaultStep = 3
)

// NaNFault is the FaultInjection hook that poisons the designated run. The
// executor calls it on the serial backend only, where it matches the run by
// realized particle count.
func NaNFault(step int, ps *part.Set) {
	if step == NaNFaultStep && ps.NLocal == NaNFaultN {
		ps.U[0] = math.NaN()
	}
}

// Server owns the resource tables, the result cache, and the worker pool.
type Server struct {
	opts Options

	mu sync.Mutex
	// jobs is the job table; its memory layer holds result metadata alone.
	jobs table[*Job, *cachedResult] // guarded by mu

	// The derived kinds, one level up from jobs: each fans member jobs out
	// through Submit and aggregates their persisted reports (derived.go).
	Experiments Derived[experiments.Sweep, ExperimentView]
	Scaling     Derived[experiments.ScalingSweep, ScalingView]
	Analyses    Derived[cluster.Spec, AnalysisView]
	// anomalies marks jobs — keyed by spec hash, so marks survive job-table
	// pruning and apply to cache-hit resubmissions — that the most recent
	// covering analysis assigned to the improper noise component.
	anomalies map[string]*AnomalyMark // guarded by mu

	queue   chan *Job
	ctx     context.Context
	stop    context.CancelFunc
	workers sync.WaitGroup
	now     func() time.Time

	met     *metrics
	log     *slog.Logger
	started time.Time

	// hist retains downsampled registry history for GET /v1/metrics/history
	// and the /statusz trend columns; sampler is its background ticker
	// goroutine (nil interval disables it).
	hist        *history.Store
	samplerDone chan struct{}
}

// errKilled is the cancellation cause for a simulated kill.
var errKilled = errors.New("server: job killed")

// queueDepth bounds waiting jobs; submissions beyond it are rejected with
// ErrQueueFull (HTTP 503).
const queueDepth = 64

// ErrQueueFull rejects submissions beyond queueDepth (HTTP 503).
var ErrQueueFull = errors.New("server: job queue full")

// New starts a Server and its worker pool. It panics if opts.Store is nil.
func New(opts Options) *Server {
	if opts.Store == nil {
		panic("server: Options.Store is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	reg := obs.NewRegistry()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		jobs:      table[*Job, *cachedResult]{prefix: "job", expires: opts.JobTTL > 0},
		anomalies: map[string]*AnomalyMark{},
		queue:     make(chan *Job, queueDepth),
		ctx:       ctx,
		stop:      stop,
		now:       opts.Clock,
		met:       newMetrics(reg),
		log:       opts.Logger,
	}
	s.Experiments = newDerived(s, convergenceKind)
	s.Scaling = newDerived(s, scalingKind)
	s.Analyses = newDerived(s, analysisKind)
	s.started = s.now()
	s.hist = history.New(reg, history.Config{
		Interval: opts.HistoryInterval,
		Clock:    opts.Clock,
	})
	if opts.HistoryInterval >= 0 {
		s.samplerDone = make(chan struct{})
		go s.sampleLoop()
	}
	for i := 0; i < opts.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Close stops accepting work and waits for in-flight jobs to finish their
// current chunk and terminate.
func (s *Server) Close() {
	s.stop()
	s.workers.Wait()
	if s.samplerDone != nil {
		<-s.samplerDone
	}
}

// sampleLoop ticks the metrics-history sampler: refresh the scrape-time
// gauges, then append one registry snapshot per series. The loop's overhead
// is a registry walk per interval — well under the 1% budget the history
// package's tests pin.
func (s *Server) sampleLoop() {
	defer close(s.samplerDone)
	// Contain sampler panics (PR 7 discipline): a bad snapshot must kill
	// the history sampler, never the serving process.
	defer func() {
		if v := recover(); v != nil {
			s.log.Error("metrics-history sampler panicked", "panic", v)
		}
	}()
	t := time.NewTicker(s.hist.Interval())
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.SampleHistory()
		}
	}
}

// SampleHistory takes one metrics-history sample immediately (the ticker
// calls it each interval; tests with the sampler disabled call it by hand).
func (s *Server) SampleHistory() {
	s.collect()
	s.hist.Sample()
}

func (s *Server) worker() {
	defer s.workers.Done()
	sc := new(runloop.Scratch) // every job this worker runs executes on it
	for {
		select {
		case <-s.ctx.Done():
			return
		case job := <-s.queue:
			s.run(job, sc)
		}
	}
}

// Submit canonicalizes and enqueues a job. Identical specs coalesce: a hash
// matching the result cache or the persistent store completes instantly
// (cache hit, returning the hash's hit record if it has one), one matching
// an active job returns that job instead of enqueueing a duplicate. The
// canonical hash covers the execution section, so the same scenario under a
// different backend, machine model, or cost calibration is a different job
// with its own stored result.
func (s *Server) Submit(spec scenario.JobSpec) (*JobView, error) {
	cspec, hash, err := spec.CanonicalHash()
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	s.pruneLocked()
	if active, ok := s.jobs.activeLocked(hash); ok {
		v := s.jobViewLocked(active)
		s.mu.Unlock()
		return &v, nil
	}
	s.mu.Unlock()

	// Resolve the result cache with the server lock released: the store
	// can touch disk (expiry eviction, index rewrite) and must not stall
	// running jobs' progress updates behind it.
	res, hit := s.resolveResult(cspec, hash)

	s.mu.Lock()
	defer s.mu.Unlock()

	// Re-check active jobs: an identical Submit may have raced in while
	// the lock was released.
	if active, ok := s.jobs.activeLocked(hash); ok {
		v := s.jobViewLocked(active)
		return &v, nil
	}

	var job *Job
	if hit {
		job = &Job{record: hitRecord(res.hash, s.now()), res: res}
	} else {
		job = &Job{record: record{Hash: hash, State: StateQueued}, run: &execution{
			spec: cspec, progress: Progress{Total: cspec.Steps}, submittedAt: s.now(),
		}}
		// Enqueue before registering, so a rejected submission consumes no
		// id; the worker that receives the job blocks on s.mu until this
		// returns.
		select {
		case s.queue <- job:
		default:
			return nil, fmt.Errorf("%w (%d waiting)", ErrQueueFull, queueDepth)
		}
	}
	job = s.jobs.registerLocked(job)
	s.met.jobsSubmitted.Inc()
	if hit {
		s.met.jobsDone.With(string(StateCompleted)).Inc()
	}
	v := s.jobViewLocked(job)
	return &v, nil
}

// BatchItem is the per-spec outcome of a batch submission: exactly one of
// Job and Error is set.
type BatchItem struct {
	Job   *JobView `json:"job,omitempty"`
	Error string   `json:"error,omitempty"`
}

// SubmitBatch submits each spec in order through the same coalescing path as
// Submit, so duplicates within the batch — and against active jobs or stored
// results — collapse onto one execution. Failures are per-item: one bad spec
// does not reject the rest of the array.
func (s *Server) SubmitBatch(specs []scenario.JobSpec) []BatchItem {
	out := make([]BatchItem, len(specs))
	for i, spec := range specs {
		view, err := s.Submit(spec)
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		out[i].Job = view
	}
	return out
}

// resolveResult consults the persistent store (outside the server lock —
// the store does its own locking), which holds every result there is. A
// first store hit enters the memory layer as metadata (and spec): its
// report and track are read only for the summary and watchdog status, and
// every later read of them goes to the store. A memory entry whose record
// the store no longer holds is dropped (miss).
func (s *Server) resolveResult(spec scenario.JobSpec, hash string) (*cachedResult, bool) {
	st := s.opts.Store
	s.mu.Lock()
	res, ok := s.jobs.cachedLocked(hash)
	s.mu.Unlock()
	m, inStore := st.Get(hash)
	if !inStore {
		if ok {
			s.mu.Lock()
			s.jobs.uncacheLocked(hash)
			s.mu.Unlock()
		}
		return nil, false
	}
	if ok {
		return res, true
	}
	var report, track []byte
	if m.ReportSize > 0 {
		report, _ = st.ReadReport(hash)
	}
	if m.TelemetrySize > 0 {
		track, _ = st.ReadTelemetry(hash)
	}
	res = &cachedResult{
		spec: spec, hash: hash,
		particles:       m.Particles,
		checksum:        m.Checksum,
		simTime:         m.SimTime,
		steps:           m.Steps,
		summary:         parseSummary(report),
		telemetryStatus: parseTrackStatus(track),
	}
	s.mu.Lock()
	s.jobs.cacheLocked(hash, res)
	s.mu.Unlock()
	return res, true
}

// parseSummary extracts the job-view rollup from report JSON; the Report's
// top-level reference/pass/l1Density keys are a stable contract.
func parseSummary(report []byte) *VerifySummary {
	var sum VerifySummary
	if err := json.Unmarshal(report, &sum); err != nil {
		return nil
	}
	return &sum
}

// parseTrackStatus extracts the watchdog status from persisted track JSON.
func parseTrackStatus(track []byte) string {
	var t struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(track, &t); err != nil {
		return ""
	}
	return t.Status
}

// pruneLocked drops terminal jobs, experiments, scaling experiments, and
// cluster analyses older than JobTTL from their tables, so none can grow
// without bound under sustained traffic. Their results stay addressable
// through the store by spec/sweep/analysis hash.
func (s *Server) pruneLocked() {
	ttl := s.opts.JobTTL
	if ttl <= 0 {
		return
	}
	cutoff := s.now().Add(-ttl)
	s.jobs.pruneLocked(cutoff)
	s.Experiments.tab.pruneLocked(cutoff)
	s.Scaling.tab.pruneLocked(cutoff)
	s.Analyses.tab.pruneLocked(cutoff)
}

// Get returns a snapshot of the job, or false.
func (s *Server) Get(id string) (view JobView, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs.getLocked(id)
	if ok {
		view = s.jobViewLocked(job)
	}
	return view, ok
}

// ListPage returns one page of jobs in submission order (see
// table.pageLocked for the cursor semantics); a non-empty state restricts
// the listing to jobs currently in it.
func (s *Server) ListPage(state JobState, cursor string, limit int) ([]JobView, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	page, next := s.jobs.pageLocked(state, cursor, limit)
	out := make([]JobView, len(page))
	for i, job := range page {
		out[i] = s.jobViewLocked(job)
	}
	return out, next
}

// ValidState reports whether st names a job lifecycle state (the HTTP layer
// rejects unknown ?state= filters with it).
func ValidState(st JobState) bool {
	switch st {
	case StateQueued, StateRunning, StateCompleted, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Cancel terminally cancels a queued or running job.
func (s *Server) Cancel(id string) error {
	return s.interrupt(id, false)
}

// Kill simulates a crash of a running job: execution aborts, but the job
// re-enters the queue and resumes from the synchronized state the run
// stopped at, which it holds in memory until then.
func (s *Server) Kill(id string) error {
	return s.interrupt(id, true)
}

func (s *Server) interrupt(id string, kill bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs.getLocked(id)
	if !ok {
		return fmt.Errorf("server: no job %q", id)
	}
	if job.terminal() {
		return fmt.Errorf("server: job %s already %s", id, job.State)
	}
	job.run.killed = kill
	if job.run.cancel != nil {
		job.run.cancel() // a kill's errKilled cause makes the run loop requeue
		return nil
	}
	// Still queued: the worker will observe the terminal state and skip it.
	if kill {
		return fmt.Errorf("server: job %s is not running", id)
	}
	job.run.held.frame = nil // a requeued job's kill left one
	s.jobs.finishLocked(job, StateCancelled, "", s.now())
	s.met.jobsDone.With(string(StateCancelled)).Inc()
	return nil
}

// DeleteJob removes a terminal job record from the job table. The result
// (snapshot, report) stays addressable by spec hash in the store —
// resubmitting the identical spec is still a cache hit; deletion forgets
// the record, not the persisted result.
func (s *Server) DeleteJob(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs.deleteLocked(id, "job")
}

// Snapshot returns the completed job's final particle state in the part
// binary checkpoint format, materialized in memory.
func (s *Server) Snapshot(id string) ([]byte, bool) {
	write, size, ok := s.snapshotBody(id)
	if !ok {
		return nil, false
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := write(buf); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// snapshotBody returns the completed job's snapshot size and a function that
// writes it through Store.WriteObject, which reads and CRC-verifies the
// record's region in one pass outside the store's lock.
func (s *Server) snapshotBody(id string) (write func(io.Writer) (int64, error), size int64, ok bool) {
	s.mu.Lock()
	job, ok := s.jobs.getLocked(id)
	ok = ok && job.State == StateCompleted
	s.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	st := s.opts.Store
	m, ok := st.Get(job.Hash)
	return func(w io.Writer) (int64, error) { return st.WriteObject(m, w) }, m.Size, ok
}

// Done returns a channel closed when the job reaches a terminal state.
func (s *Server) Done(id string) (<-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs.getLocked(id)
	if !ok {
		return nil, false
	}
	return job.done, true
}

func (v JobView) meta() (string, JobState) { return v.Hash, v.State }

// run takes one queued job through its lifecycle. This is the claim stage:
// it moves the job to running, records the queue wait, wires cancel and
// kill to the run's context, contains engine panics, and then hands the
// outcome of execute to requeue (after a simulated kill), complete, or a
// failed or cancelled terminal state, all on the worker's goroutine: the
// run's state lives in the worker's scratch until its next job.
func (s *Server) run(job *Job, sc *runloop.Scratch) {
	s.mu.Lock()
	if job.State != StateQueued { // cancelled while waiting
		s.mu.Unlock()
		return
	}
	x := job.run
	job.State = StateRunning
	x.progress = Progress{Total: x.spec.Steps}
	if !x.submittedAt.IsZero() {
		x.spans.AddSeconds(obs.PhaseQueueWait, s.now().Sub(x.submittedAt).Seconds())
	}
	ctx, cancel := context.WithCancelCause(s.ctx)
	x.cancel = func() {
		cause := context.Canceled
		if x.killed {
			cause = errKilled
		}
		cancel(cause)
	}
	s.mu.Unlock()
	defer cancel(nil)

	// A panicking engine must fail this job, never the process. The compute
	// fan-outs rethrow worker-goroutine panics on this goroutine
	// (internal/par) and the parallel world converts rank panics into a run
	// error, so whatever still unwinds to here is contained the same way.
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		s.mu.Lock()
		running := job.State == StateRunning
		s.mu.Unlock()
		if running {
			s.fail(job, fmt.Errorf("job panicked: %v", v))
			return
		}
		s.log.Error("panic after job left the running state",
			"job", job.ID, "state", string(job.State), "panic", fmt.Sprint(v))
	}()

	res, err := s.execute(ctx, job, sc)
	switch {
	case err != nil:
		s.fail(job, err)
	case !res.Cancelled:
		s.complete(job, res, sc)
	case errors.Is(context.Cause(ctx), errKilled) && s.requeue(job, res):
		// Requeued; requeue declines when a Cancel followed the Kill.
	default:
		s.finish(job, StateCancelled, "")
		s.log.Info("job cancelled", "job", job.ID, "hash", job.Hash, "step", res.Steps)
	}
}

// finish is a running job's terminal transition.
func (s *Server) finish(job *Job, state JobState, msg string) {
	s.mu.Lock()
	job.run.cancel = nil
	s.jobs.finishLocked(job, state, msg, s.now())
	s.mu.Unlock()
	s.met.jobsDone.With(string(state)).Inc()
}

func (s *Server) fail(job *Job, err error) {
	s.finish(job, StateFailed, err.Error())
	s.log.Error("job failed", "job", job.ID, "hash", job.Hash,
		"scenario", job.run.spec.Scenario, "error", err)
}

// execute runs the job's spec through the executor cmd/sphexa runs through
// too (internal/runloop), in a server's environment: from the state a
// kill's requeue held, if any, decoded and timed as the restore phase; the
// job's flight recorder; progress published per step; the worker's scratch.
func (s *Server) execute(ctx context.Context, job *Job, sc *runloop.Scratch) (runloop.Result, error) {
	x := job.run
	s.mu.Lock()
	held := x.held
	if held.frame != nil {
		x.held.frame = nil
		x.progress = Progress{Step: held.step, Total: x.spec.Steps, SimTime: held.simTime}
	}
	// The flight recorder is created once per Job and survives
	// kill-requeues: the requeued Job comes back with its recorder intact,
	// and the executor truncates it to each chunk's base step before
	// re-feeding — so the final track matches an uninterrupted run's.
	if x.rec == nil {
		x.rec = telemetry.NewRecorder(func(kind string) {
			s.met.watchdogTrips.With(kind).Inc()
			s.mu.Lock()
			x.telemetryStatus = telemetry.StatusTripped
			s.mu.Unlock()
			s.log.Warn("telemetry watchdog tripped", "job", job.ID,
				"hash", job.Hash, "kind", kind)
		})
		x.telemetryStatus = telemetry.StatusOK
	}
	rec := x.rec
	s.mu.Unlock()

	var from *runloop.Start
	if held.frame != nil {
		sp := obs.StartSpan(obs.PhaseRestore, s.now)
		ps := part.New(0)
		if _, err := ps.ReadFrom(bytes.NewReader(held.frame)); err != nil {
			return runloop.Result{}, fmt.Errorf("resuming after a kill: %w", err)
		}
		sp.EndTo(&x.spans)
		from = &runloop.Start{PS: ps, Step: held.step, SimTime: held.simTime}
	}
	res, err := runloop.Execute(x.spec, runloop.Env{
		Ctx:            ctx,
		Clock:          s.now,
		From:           from,
		Recorder:       rec,
		FaultInjection: s.opts.FaultInjection,
		Scratch:        sc,
		OnStep: func(rep core.StepReport, _ conserve.State, _ *part.Set) {
			s.mu.Lock()
			x.progress.Step = rep.Step + 1
			x.progress.SimTime = rep.Time
			x.progress.DT = rep.DT
			s.mu.Unlock()
		},
	})
	// The lifecycle trace spans attempts: a killed run's partial work stays
	// in it when the requeued job adds its own.
	for _, p := range res.Phases.Phases {
		x.spans.AddSeconds(p.Name, p.Seconds)
	}
	return res, err
}

// requeue is the simulated crash: hold a copy of the state the run stopped
// at (res.PS lives in the worker's scratch; none before the first step)
// and put the job back in the queue, to resume from there. It declines,
// and the job ends cancelled, when a Cancel landed after the Kill: the
// run's context keeps the Kill as its cause, but interrupt cleared killed,
// and this lock hold is what decides, so a Cancel wins in either order.
func (s *Server) requeue(job *Job, res runloop.Result) bool {
	x := job.run
	var frame []byte
	if res.Steps > 0 {
		frame = res.PS.AppendFrame(nil)
	}
	s.mu.Lock()
	if !x.killed {
		s.mu.Unlock()
		return false
	}
	x.held.frame, x.held.step, x.held.simTime = frame, res.Steps, res.SimTime
	job.State = StateQueued
	x.killed = false
	x.cancel = nil
	x.restarts++
	x.submittedAt = s.now()
	requeued := false
	select {
	case s.queue <- job:
		requeued = true
	default:
		x.held.frame = nil
		s.jobs.finishLocked(job, StateFailed, "requeue after kill failed: queue full", s.now())
	}
	s.mu.Unlock()
	if requeued {
		s.log.Info("job requeued after kill", "job", job.ID,
			"hash", job.Hash, "restarts", x.restarts, "step", res.Steps)
	} else {
		s.met.jobsDone.With(string(StateFailed)).Inc()
		s.log.Error("job failed", "job", job.ID, "hash", job.Hash, "error", job.Err)
	}
	return true
}

// complete turns a finished run into the job's result: encode the snapshot
// into the worker's scratch sc, render report and track once (the bytes
// every later fetch and cache hit serves), persist them, and finish the
// job. The memory layer keeps the result's metadata alone; if the store did
// not keep the record, its bytes are gone as if evicted.
func (s *Server) complete(job *Job, res runloop.Result, sc *runloop.Scratch) {
	x := job.run
	snap := sc.Encode(res.PS)
	result := &cachedResult{
		spec: x.spec, hash: job.Hash,
		particles: res.PS.NLocal,
		checksum:  part.FrameChecksum(snap),
		simTime:   res.SimTime,
		steps:     x.spec.Steps,
	}
	// The marshaled report carries the lifecycle trace recorded so far
	// (queue-wait through verify); it is persisted once, so a cache-hit
	// resubmission serves the identical bytes. The persist phase below is
	// necessarily measured after the marshal and lives only in the
	// registry's job_phase_seconds histogram.
	var report []byte
	report, result.summary = marshalReport(res.Report, res.Timing, &x.spans)
	track := x.rec.TrackSnapshot()
	trackJSON, err := json.Marshal(track)
	if err == nil {
		result.telemetryStatus = track.Status
	}
	pspan := obs.StartSpan(obs.PhasePersist, s.now)
	s.persist(job, result, snap, report, trackJSON)

	s.mu.Lock()
	s.jobs.cacheLocked(job.Hash, result)
	end := &outcome{dt: x.progress.DT, restarts: x.restarts,
		telemetryStatus: cmp.Or(result.telemetryStatus, x.telemetryStatus)}
	job.res, job.run, job.end = result, nil, end
	x.cancel = nil
	s.jobs.finishLocked(job, StateCompleted, "", s.now())
	s.mu.Unlock()

	for _, p := range x.spans.Phases {
		s.met.jobPhase.With(p.Name).Observe(p.Seconds)
	}
	s.met.jobPhase.With(obs.PhasePersist).Observe(pspan.End().Seconds())
	s.met.jobsDone.With(string(StateCompleted)).Inc()
	pass := result.summary != nil && result.summary.Pass
	s.log.Info("job completed", "job", job.ID, "hash", job.Hash,
		"scenario", x.spec.Scenario, "steps", x.spec.Steps, "particles", result.particles,
		"pass", pass, "restarts", x.restarts,
		"queueWaitS", x.spans.Seconds(obs.PhaseQueueWait), "runS", x.spans.Seconds(obs.PhaseRun))
}

// persist writes the result into the store as one record: snapshot, report
// and track in one call and one append to a pack, stored whole or not at
// all, then one eviction pass and one index write. What the store failed to
// write (the record or the index entry) is logged and counted; the job
// still completes. A record not written, or evicted by that pass at once
// (larger than the whole byte budget), is then gone like any evicted one.
func (s *Server) persist(job *Job, result *cachedResult, snapshot, report, track []byte) {
	errs := s.opts.Store.PutResult(store.Meta{
		Hash:      job.Hash,
		Particles: result.particles,
		Steps:     result.steps,
		SimTime:   result.simTime,
		Checksum:  result.checksum,
	}, snapshot, report, track)
	for _, e := range errs {
		s.met.persistFails.With(e.Artifact).Inc()
		s.log.Warn("job result not persisted", "job", job.ID, "hash", job.Hash,
			"artifact", e.Artifact, "error", e.Err)
	}
}

// marshalReport renders the persisted report JSON: the verification report
// plus the run's per-phase modeled timing breakdown (parallel backend only
// — what the scaling-experiment aggregator reads back by member hash) and
// the job's wall-clock lifecycle trace (queue-wait, restore after a kill,
// run, verify). The bytes are written once and served verbatim
// thereafter, so cache hits stay byte-identical.
func marshalReport(rep *verify.Report, timing *core.RunTiming, spans *obs.SpanSet) ([]byte, *VerifySummary) {
	if spans != nil && len(spans.Phases) == 0 {
		spans = nil
	}
	b, err := json.Marshal(struct {
		*verify.Report
		Timing *core.RunTiming `json:"timing,omitempty"`
		Spans  *obs.SpanSet    `json:"spans,omitempty"`
	}{rep, timing, spans})
	if err != nil {
		return nil, nil
	}
	return b, &VerifySummary{Reference: rep.Reference, Pass: rep.Pass, L1Density: rep.L1Density}
}

// Metrics returns the completed job's verification report JSON. The second
// return distinguishes "job not completed / unknown" (false) from a
// completed job with no recorded report (true with nil bytes — e.g. a
// result persisted by a pre-verification build).
func (s *Server) Metrics(id string) ([]byte, bool) {
	view, ok := s.Get(id)
	if !ok || view.State != StateCompleted {
		return nil, false
	}
	report, _ := readReport(s.opts.Store, view.Hash)
	return report, true
}

// readReport and readTelemetry read the verification report and the
// telemetry track recorded under a result hash, one store region each, nil
// where none is held (evicted, never stored, or persisted by a build that
// did not record it). They need no live job record, so derived resources
// survive job table pruning. TestStoredResultReadsOneRegion counts them.
var readReport, readTelemetry = (*store.Store).ReadReport, (*store.Store).ReadTelemetry

// Telemetry returns the job's flight-recorder track JSON. Completed jobs
// serve the persisted track verbatim (byte-identical across cache hits and
// store restarts); running, killed-requeued, failed, and cancelled jobs
// serve a live snapshot of the recorder — the post-mortem view. The second
// return is false only for unknown ids; a job with no telemetry (queued, or
// a cache hit against a pre-telemetry store entry) returns (nil, true).
func (s *Server) Telemetry(id string) ([]byte, bool) {
	s.mu.Lock()
	job, ok := s.jobs.getLocked(id)
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	state, hash, rec := job.State, job.Hash, job.recorder()
	s.mu.Unlock()

	if state == StateCompleted {
		track, _ := readTelemetry(s.opts.Store, hash)
		return track, true
	}
	if rec == nil {
		return nil, true
	}
	b, err := json.Marshal(rec.TrackSnapshot())
	if err != nil {
		return nil, true
	}
	return b, true
}

// TelemetryLatest returns the most recent flight-recorder sample of a job
// that executed (the SSE stream's per-frame payload). A completed run's is
// the last sample of its hash's track, which ends at the last executed
// step; once the store no longer holds it (its /telemetry answers 410) there
// is none, as there is none for a cache hit.
func (s *Server) TelemetryLatest(id string) (telemetry.Sample, bool) {
	s.mu.Lock()
	job, ok := s.jobs.getLocked(id)
	var rec *telemetry.Recorder
	ran, hash := false, ""
	if ok {
		rec, ran, hash = job.recorder(), job.end != nil, job.Hash
	}
	s.mu.Unlock()
	if ran {
		b, _ := readTelemetry(s.opts.Store, hash)
		var track telemetry.Track
		if json.Unmarshal(b, &track) != nil || len(track.Samples) == 0 {
			return telemetry.Sample{}, false
		}
		return track.Samples[len(track.Samples)-1], true
	}
	if rec == nil {
		return telemetry.Sample{}, false
	}
	return rec.Latest()
}

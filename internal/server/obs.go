package server

import (
	"math"
	rm "runtime/metrics"
	"strings"
	"sync"

	"repro/internal/obs"
)

// runtime/metrics sample names exported into the registry.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmGCPauses   = "/gc/pauses:seconds"
)

// metrics bundles the server's registry handles. Families are registered
// once at construction; children materialize on first use.
type metrics struct {
	reg *obs.Registry

	// HTTP middleware.
	httpReqs     *obs.CounterVec   // http_requests_total{route,method,code}
	httpLatency  *obs.HistogramVec // http_request_duration_seconds{route,method,code}
	routeLatency *obs.HistogramVec // http_route_duration_seconds{route}
	httpInflight *obs.Gauge        // http_inflight_requests
	// deprecated stays registered after the unversioned alias routes were
	// removed: the family renders with zero series, so dashboards keyed on
	// it keep resolving instead of erroring on a vanished metric.
	deprecated *obs.CounterVec // deprecated_requests_total{route}
	// Physics watchdogs (internal/telemetry) per tripped kind.
	watchdogTrips *obs.CounterVec // telemetry_watchdog_trips_total{kind}

	// Job lifecycle.
	jobsSubmitted *obs.Counter      // jobs_submitted_total
	jobCacheHits  *obs.Counter      // job_cache_hits_total
	jobsDone      *obs.CounterVec   // jobs_terminal_total{state}
	jobRestarts   *obs.Counter      // job_restarts_total
	jobPhase      *obs.HistogramVec // job_phase_seconds{phase}
	persistFails  *obs.CounterVec   // job_persist_failures_total{artifact}

	// Sweep fan-out attribution (convergence + scaling experiments).
	sweeps          *obs.CounterVec // sweeps_total{kind}
	sweepCacheHits  *obs.CounterVec // sweep_cache_hits_total{kind}
	sweepMembers    *obs.CounterVec // sweep_members_total{kind}
	sweepMemberHits *obs.CounterVec // sweep_member_cache_hits_total{kind}
	sweepsDone      *obs.CounterVec // sweeps_terminal_total{kind,state}

	// Fleet analytics (POST /v1/analytics/cluster).
	analytics        *obs.CounterVec // analytics_total
	analyticsHits    *obs.CounterVec // analytics_cache_hits_total
	analyticsDone    *obs.CounterVec // analytics_terminal_total{state}
	anomaliesFlagged *obs.CounterVec // analytics_anomalies_total{scenario}

	memberQueueDepth *obs.Gauge // job_queue_depth (collected at scrape)
	queueCapacity    *obs.Gauge // job_queue_capacity
	workersBusy      *obs.Gauge // workers_busy
	workersTotal     *obs.Gauge // workers_total
	uptime           *obs.Gauge // uptime_seconds

	// Store mirror gauges, collected at scrape time from store.Stats.
	storeEntries   *obs.Gauge // store_entries
	storeBytes     *obs.Gauge // store_bytes
	storeHitRate   *obs.Gauge // store_hit_rate
	storePuts      *obs.Gauge // store_puts_total
	storeEvictions *obs.Gauge // store_evictions_total

	// Go runtime health, read from runtime/metrics at scrape time.
	goGoroutines *obs.Gauge     // go_goroutines
	goHeapBytes  *obs.Gauge     // go_heap_bytes
	goGCPause    *obs.Histogram // go_gc_pause_seconds

	// rtMu guards the runtime/metrics read state: the sample slice is
	// reused across scrapes and the GC pause histogram is cumulative, so
	// concurrent scrapes must difference it serially.
	rtMu      sync.Mutex
	rtSamples []rm.Sample
	gcPrev    []uint64
}

// newMetrics registers the server's metric families on reg.
func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		reg: reg,

		httpReqs: reg.Counter("http_requests_total",
			"HTTP requests served, by route pattern, method, and status code",
			"route", "method", "code"),
		httpLatency: reg.Histogram("http_request_duration_seconds",
			"HTTP request latency in seconds, by route pattern, method, and status code",
			nil, "route", "method", "code"),
		routeLatency: reg.Histogram("http_route_duration_seconds",
			"HTTP request latency in seconds aggregated per route pattern "+
				"(the /statusz per-route digest reads this family)",
			nil, "route"),
		httpInflight: reg.Gauge("http_inflight_requests",
			"HTTP requests currently being served").With(),
		deprecated: reg.Counter("deprecated_requests_total",
			"requests served through deprecated unversioned alias routes, by route "+
				"pattern (the aliases are removed; the family stays for dashboards)",
			"route"),
		watchdogTrips: reg.Counter("telemetry_watchdog_trips_total",
			"physics watchdog trips on job flight-recorder samples, by kind "+
				"(nan, drift-slope, dt-collapse, imbalance)",
			"kind"),

		jobsSubmitted: reg.Counter("jobs_submitted_total",
			"job submissions accepted (including cache hits and coalesced duplicates)").With(),
		jobCacheHits: reg.Counter("job_cache_hits_total",
			"job submissions served instantly from the result cache or store").With(),
		jobsDone: reg.Counter("jobs_terminal_total",
			"jobs reaching a terminal state, by state", "state"),
		jobRestarts: reg.Counter("job_restarts_total",
			"job resumptions after a simulated kill").With(),
		jobPhase: reg.Histogram("job_phase_seconds",
			"wall-clock seconds jobs spend per lifecycle phase ("+
				strings.Join(obs.LifecyclePhases, ", ")+")",
			nil, "phase"),
		persistFails: reg.Counter("job_persist_failures_total",
			"completed-job artifacts the result store failed to write, by artifact "+
				"(snapshot, report, telemetry); the job is still served from memory",
			"artifact"),

		sweeps: reg.Counter("sweeps_total",
			"experiment sweeps started, by kind (convergence, scaling)", "kind"),
		sweepCacheHits: reg.Counter("sweep_cache_hits_total",
			"experiment sweeps served instantly from a persisted result, by kind", "kind"),
		sweepMembers: reg.Counter("sweep_members_total",
			"member jobs submitted by experiment sweeps, by kind — attributes job fan-out to sweeps", "kind"),
		sweepMemberHits: reg.Counter("sweep_member_cache_hits_total",
			"sweep member jobs that were instant cache hits, by kind", "kind"),
		sweepsDone: reg.Counter("sweeps_terminal_total",
			"experiment sweeps reaching a terminal state, by kind and state", "kind", "state"),

		analytics: reg.Counter("analytics_total",
			"cluster analyses accepted (including cache hits and coalesced duplicates)"),
		analyticsHits: reg.Counter("analytics_cache_hits_total",
			"cluster analyses served instantly from a persisted result"),
		analyticsDone: reg.Counter("analytics_terminal_total",
			"cluster analyses reaching a terminal state, by state", "state"),
		anomaliesFlagged: reg.Counter("analytics_anomalies_total",
			"jobs newly assigned to the improper noise component by a cluster "+
				"analysis, by scenario", "scenario"),

		memberQueueDepth: reg.Gauge("job_queue_depth",
			"jobs waiting in the submission queue").With(),
		queueCapacity: reg.Gauge("job_queue_capacity",
			"submission queue capacity").With(),
		workersBusy: reg.Gauge("workers_busy",
			"workers currently executing a job").With(),
		workersTotal: reg.Gauge("workers_total",
			"configured simulation workers").With(),
		uptime: reg.Gauge("uptime_seconds",
			"seconds since this server started").With(),

		storeEntries: reg.Gauge("store_entries",
			"live snapshot objects in the result store").With(),
		storeBytes: reg.Gauge("store_bytes",
			"total bytes of live snapshot objects in the result store").With(),
		storeHitRate: reg.Gauge("store_hit_rate",
			"result-store lookup hit rate since open (0..1)").With(),
		storePuts: reg.Gauge("store_puts_total",
			"result-store writes since open").With(),
		storeEvictions: reg.Gauge("store_evictions_total",
			"result-store TTL/LRU evictions since open").With(),

		goGoroutines: reg.Gauge("go_goroutines",
			"live goroutines in the serving process").With(),
		goHeapBytes: reg.Gauge("go_heap_bytes",
			"bytes of live heap objects (runtime/metrics heap/objects class)").With(),
		goGCPause: reg.Histogram("go_gc_pause_seconds",
			"garbage-collector stop-the-world pause durations, fed from the "+
				"runtime's cumulative pause histogram at scrape time",
			nil).With(),
	}
	// Label-less families render their zero from the first scrape.
	m.analytics.With()
	m.analyticsHits.With()
	return m
}

// lifecycleVecs are the counter families one derived-resource kind ticks
// along its lifecycle. The two sweep kinds share the sweep_* families and
// select their series with the kind label; the analytics_* families carry
// no kind label, and an analysis has no member jobs to count.
type lifecycleVecs struct {
	label                                               string
	submitted, cacheHits, members, memberHits, terminal *obs.CounterVec
}

func (m *metrics) sweepLifecycle(label string) lifecycleVecs {
	return lifecycleVecs{label, m.sweeps, m.sweepCacheHits, m.sweepMembers, m.sweepMemberHits, m.sweepsDone}
}

func (m *metrics) analyticsLifecycle() lifecycleVecs {
	return lifecycleVecs{"", m.analytics, m.analyticsHits, nil, nil, m.analyticsDone}
}

// inc ticks the kind's series of one family (terminal takes the state as
// its second label); nil families are skipped.
func (v lifecycleVecs) inc(family *obs.CounterVec, state ...string) {
	if family == nil {
		return
	}
	if v.label != "" {
		state = append([]string{v.label}, state...)
	}
	family.With(state...).Inc()
}

// collectRuntime refreshes the Go runtime health families from
// runtime/metrics: goroutine count and live heap bytes as gauges, and the
// delta of the runtime's cumulative GC pause histogram re-observed at
// bucket midpoints.
func (m *metrics) collectRuntime() {
	m.rtMu.Lock()
	defer m.rtMu.Unlock()
	if m.rtSamples == nil {
		m.rtSamples = []rm.Sample{
			{Name: rmGoroutines}, {Name: rmHeapBytes}, {Name: rmGCPauses},
		}
	}
	rm.Read(m.rtSamples)
	for i := range m.rtSamples {
		s := &m.rtSamples[i]
		switch s.Name {
		case rmGoroutines:
			if s.Value.Kind() == rm.KindUint64 {
				m.goGoroutines.Set(float64(s.Value.Uint64()))
			}
		case rmHeapBytes:
			if s.Value.Kind() == rm.KindUint64 {
				m.goHeapBytes.Set(float64(s.Value.Uint64()))
			}
		case rmGCPauses:
			if s.Value.Kind() != rm.KindFloat64Histogram {
				continue
			}
			h := s.Value.Float64Histogram()
			if len(m.gcPrev) != len(h.Counts) {
				m.gcPrev = make([]uint64, len(h.Counts))
			}
			for j, c := range h.Counts {
				d := c - m.gcPrev[j]
				if c < m.gcPrev[j] {
					d = 0
				}
				m.gcPrev[j] = c
				if d == 0 {
					continue
				}
				lo, hi := h.Buckets[j], h.Buckets[j+1]
				mid := (lo + hi) / 2
				if math.IsInf(lo, -1) {
					mid = hi
				} else if math.IsInf(hi, 1) {
					mid = lo
				}
				for k := uint64(0); k < d; k++ {
					m.goGCPause.Observe(mid)
				}
			}
		}
	}
}

// collect refreshes the scrape-time gauges (queue occupancy, worker
// occupancy, uptime, store mirror) from live server state. Called by the
// /statusz and /metricsz handlers right before rendering.
func (s *Server) collect() {
	s.mu.Lock()
	busy := 0
	s.jobs.eachLocked(func(job *Job) {
		if job.State == StateRunning {
			busy++
		}
	})
	s.mu.Unlock()

	m := s.met
	m.memberQueueDepth.Set(float64(len(s.queue)))
	m.queueCapacity.Set(float64(cap(s.queue)))
	m.workersBusy.Set(float64(busy))
	m.workersTotal.Set(float64(s.opts.Workers))
	m.uptime.Set(s.now().Sub(s.started).Seconds())

	if st := s.opts.Store; st != nil {
		stats := st.Stats()
		m.storeEntries.Set(float64(stats.Entries))
		m.storeBytes.Set(float64(stats.Bytes))
		m.storeHitRate.Set(stats.HitRate)
		m.storePuts.Set(float64(stats.Puts))
		m.storeEvictions.Set(float64(stats.Evictions))
	}

	m.collectRuntime()
}

// Registry exposes the server's metrics registry (the serve binary hangs
// auxiliary collectors off it; tests read it back).
func (s *Server) Registry() *obs.Registry { return s.met.reg }

package server

import (
	rm "runtime/metrics"
	"strings"

	"repro/internal/obs"
)

// runtime/metrics sample names exported into the registry.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
)

// metrics bundles the server's registry handles. Families are registered
// once at construction; children materialize on first use. Every family
// here is read by a test, the contract smoke, /statusz or the benchmark;
// TestMetricFamilyInventory pins the list.
type metrics struct {
	reg *obs.Registry

	// HTTP middleware.
	httpReqs     *obs.CounterVec   // http_requests_total{route,method,code}
	httpLatency  *obs.HistogramVec // http_request_duration_seconds{route,method,code}
	routeLatency *obs.HistogramVec // http_route_duration_seconds{route}
	httpInflight *obs.Gauge        // http_inflight_requests
	// Physics watchdogs (internal/telemetry) per tripped kind.
	watchdogTrips *obs.CounterVec // telemetry_watchdog_trips_total{kind}

	// Job lifecycle.
	jobsSubmitted *obs.Counter      // jobs_submitted_total
	jobsDone      *obs.CounterVec   // jobs_terminal_total{state}
	jobPhase      *obs.HistogramVec // job_phase_seconds{phase}
	persistFails  *obs.CounterVec   // job_persist_failures_total{artifact}

	// Fleet analytics (POST /v1/analytics/cluster).
	anomaliesFlagged *obs.CounterVec // analytics_anomalies_total{scenario}

	// Collected at scrape time from live server state.
	memberQueueDepth *obs.Gauge // job_queue_depth
	queueCapacity    *obs.Gauge // job_queue_capacity
	workersBusy      *obs.Gauge // workers_busy
	workersTotal     *obs.Gauge // workers_total
	uptime           *obs.Gauge // uptime_seconds

	// Go runtime health, read from runtime/metrics at scrape time.
	goGoroutines *obs.Gauge // go_goroutines
	goHeapBytes  *obs.Gauge // go_heap_bytes
}

// newMetrics registers the server's metric families on reg.
func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
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
		watchdogTrips: reg.Counter("telemetry_watchdog_trips_total",
			"physics watchdog trips on job flight-recorder samples, by kind "+
				"(nan, drift-slope, dt-collapse, imbalance)",
			"kind"),

		jobsSubmitted: reg.Counter("jobs_submitted_total",
			"job submissions accepted (including cache hits and coalesced duplicates)").With(),
		jobsDone: reg.Counter("jobs_terminal_total",
			"jobs reaching a terminal state, by state", "state"),
		jobPhase: reg.Histogram("job_phase_seconds",
			"wall-clock seconds jobs spend per lifecycle phase ("+
				strings.Join(obs.LifecyclePhases, ", ")+")",
			nil, "phase"),
		persistFails: reg.Counter("job_persist_failures_total",
			"completed-job results the result store failed to write, by artifact "+
				"(record, index); a result whose record was not written is gone, as if evicted",
			"artifact"),
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

		goGoroutines: reg.Gauge("go_goroutines",
			"live goroutines in the serving process").With(),
		goHeapBytes: reg.Gauge("go_heap_bytes",
			"bytes of live heap objects (runtime/metrics heap/objects class)").With(),
	}
}

// collectRuntime refreshes the Go runtime health gauges from runtime/metrics.
func (m *metrics) collectRuntime() {
	samples := []rm.Sample{{Name: rmGoroutines}, {Name: rmHeapBytes}}
	rm.Read(samples)
	for i, g := range []*obs.Gauge{m.goGoroutines, m.goHeapBytes} {
		if v := samples[i].Value; v.Kind() == rm.KindUint64 {
			g.Set(float64(v.Uint64()))
		}
	}
}

// collect refreshes the scrape-time gauges (queue occupancy, worker
// occupancy, uptime, runtime health) from live server state. Called by the
// /statusz and /metricsz handlers and the history sampler right before they
// read the registry.
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

	m.collectRuntime()
}

// Registry exposes the server's metrics registry (the serve binary hangs
// auxiliary collectors off it; tests read it back).
func (s *Server) Registry() *obs.Registry { return s.met.reg }

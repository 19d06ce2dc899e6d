// Package obsnames is the obsnames fixture: metric and label names on the
// obs Registry constructors must be compile-time constants following the
// Prometheus suffix scheme, and trace slice categories must be constants
// (slice names are recorded data).
package obsnames

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

var dynamicLabel = "route"

func register(r *obs.Registry, suffix string) {
	r.Counter("jobs_total", "completed jobs", "state")
	r.Counter("jobs_started", "jobs started")     // want "must end in _total"
	r.Counter("errs_"+suffix, "errors by suffix") // want "metric name must be a compile-time constant"
	r.Gauge("queue_depth", "current queue depth")
	r.Gauge("queue_depth_total", "misleading") // want "ends in _total"
	r.Histogram("latency_seconds", "latency", nil, "route")
	r.Histogram("latency", "latency", nil)        // want "must end in _seconds or _bytes"
	r.Counter("hits_total", "hits", dynamicLabel) // want "label name must be a compile-time constant"
}

func spread(r *obs.Registry, labels []string) {
	r.Counter("spread_total", "spread labels", labels...) // want "not spread from a slice"
}

func emit(p *trace.Perfetto, phase string) {
	p.SliceData(trace.CatPhase, "compute", 1, 0, 0, 1, nil)
	p.SliceData("cat-"+phase, "compute", 1, 0, 0, 1, nil) // want "trace category must be a compile-time constant"
	p.SliceData(trace.CatLifecycle, phase, 0, 0, 0, 1, nil)
	p.SliceData(phase, "queue-wait", 0, 0, 0, 1, nil) // want "trace category must be a compile-time constant"
}

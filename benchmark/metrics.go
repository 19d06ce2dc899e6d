package main

import (
	"cmp"
	"slices"
)

// Workload names, in the order a set runs them.
const (
	evrardSerial = "evrard-serial"
	sedovSerial  = "sedov-serial"
	squareRanks  = "square-ranks"
	serveCold    = "serve-cold"
	serveWarm    = "serve-warm"
)

// workload is one named set of inputs; why is recorded in BENCHMARK.json.
type workload struct {
	name string
	why  string
}

var workloads = []workload{
	{evrardSerial, "Evrard collapse, N=8000, serial Sim.Step with gravity on: the paper's astrophysics test and the only workload where gravity does real work; forces dominate the step"},
	{sedovSerial, "Sedov blast, N=8000, fully periodic, no gravity: the minimum-image path raises neighbour search to a third of the step; a gravity change must not move it, a PBC change must"},
	{squareRanks, "Rotating square patch, N=8000, RunParallelCapture on 2 ranks: the paper's common test and the only workload where domain and simmpi work, at halo fraction ~1"},
	{serveCold, "1000 distinct tiny jobs through POST /v1/jobs + SSE, closed loop, 2 clients: write side of the serving stack, per-job fixed overheads with no cache help"},
	{serveWarm, "30000 resubmissions of 64 stored jobs after a restart, each followed by metrics and snapshot reads: read side of the same layers with zero engine work"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// metricDef declares one metric: the single source BENCHMARK.json is
// checked against (bench_test.go) and -compare takes direction and bound
// from.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening that counts as a regression
	// on lists the workloads that declare the metric; nil means all five.
	on []string
}

func (m metricDef) declaredOn(w string) bool {
	if m.on == nil {
		return true
	}
	for _, x := range m.on {
		if x == w {
			return true
		}
	}
	return false
}

// endToEnd is measured by the untraced run. The benchmark contract has every
// workload emit every end-to-end metric, so each is defined on all five with
// one rule: an op is one timed Sim step on the engine workloads and one job
// round trip on the serve workloads; the work unit is one particle advanced
// one step (computed on the engine workloads and serve-cold, delivered from
// the store on serve-warm). README.md marks which rows are primary per
// workload.
//
// The bounds are what this 2-core sandbox can resolve, not what one would
// like to gate on: ten back-to-back runs of one commit spread 6-10% on the
// timings when the machine is quiet and 12-25% when it is not (README.md,
// "Noise"), and the contract rejects a metric whose spread exceeds its
// bound. latency_ms_p95 did not fit under any allowed bound and is reported
// per layer, as client.latency_ms_p95.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "particle_steps_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "step_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
}

var (
	serialOnly = []string{evrardSerial, sedovSerial}
	ranksOnly  = []string{squareRanks}
	serveBoth  = []string{serveCold, serveWarm}
	coldOnly   = []string{serveCold}
	warmOnly   = []string{serveWarm}
)

// perLayer is measured by the traced run, layer = module name. A metric a
// workload does not declare is printed as 0 in the contract's result line
// (which carries every per-layer name) and is absent from the set file.
var perLayer = []metricDef{
	{name: "tree.build_ms", unit: "ms", better: "lower", on: serialOnly},
	{name: "tree.leaves", unit: "count", better: "lower", on: serialOnly},
	{name: "tree.max_depth", unit: "count", better: "lower", on: serialOnly},
	{name: "sph.neighbors_ms", unit: "ms", better: "lower", on: serialOnly},
	{name: "sph.neighbors_mean", unit: "count", better: "lower", on: serialOnly},
	{name: "sph.neighbor_list_mb", unit: "MB", better: "lower", on: serialOnly},
	{name: "sph.density_ms", unit: "ms", better: "lower", on: serialOnly},
	{name: "sph.eos_ms", unit: "ms", better: "lower", on: serialOnly},
	{name: "sph.iad_ms", unit: "ms", better: "lower", on: serialOnly},
	{name: "sph.iad_fallbacks", unit: "count", better: "lower", on: serialOnly},
	{name: "sph.forces_ms", unit: "ms", better: "lower", on: serialOnly},
	{name: "sph.pair_interactions", unit: "count", better: "lower", on: serialOnly},
	{name: "sph.forces_mpairs_per_s", unit: "1e6/s", better: "higher", on: serialOnly},
	{name: "gravity.accel_ms", unit: "ms", better: "lower", on: []string{evrardSerial}},
	{name: "gravity.node_interactions", unit: "count", better: "lower", on: []string{evrardSerial}},
	{name: "gravity.pair_interactions", unit: "count", better: "lower", on: []string{evrardSerial}},
	{name: "core.update_ms", unit: "ms", better: "lower", on: serialOnly},
	{name: "core.probe_coverage", unit: "ratio", better: "higher", on: serialOnly},
	{name: "core.parallel_efficiency", unit: "ratio", better: "higher", on: ranksOnly},
	{name: "core.tiny_run_ms", unit: "ms", better: "lower", on: coldOnly},
	{name: "domain.decompose_ms", unit: "ms", better: "lower", on: ranksOnly},
	{name: "domain.plan_halo_ms", unit: "ms", better: "lower", on: ranksOnly},
	{name: "domain.ghosts", unit: "count", better: "lower", on: ranksOnly},
	{name: "domain.halo_fraction", unit: "ratio", better: "lower", on: ranksOnly},
	{name: "domain.imbalance", unit: "ratio", better: "lower", on: ranksOnly},
	{name: "simmpi.modeled_step_s", unit: "s", better: "lower", on: ranksOnly},
	{name: "simmpi.modeled_compute_frac", unit: "ratio", better: "higher", on: ranksOnly},
	{name: "simmpi.modeled_halo_frac", unit: "ratio", better: "lower", on: ranksOnly},
	{name: "simmpi.modeled_collective_frac", unit: "ratio", better: "lower", on: ranksOnly},
	{name: "simmpi.load_balance", unit: "ratio", better: "higher", on: ranksOnly},
	{name: "scenario.decode_us", unit: "us", better: "lower", on: serveBoth},
	{name: "scenario.canonical_hash_us", unit: "us", better: "lower", on: serveBoth},
	{name: "scenario.generate_ms", unit: "ms", better: "lower", on: coldOnly},
	{name: "client.submit_ms_p50", unit: "ms", better: "lower", on: serveBoth},
	{name: "client.wait_ms_p50", unit: "ms", better: "lower", on: coldOnly},
	{name: "client.metrics_ms_p50", unit: "ms", better: "lower", on: warmOnly},
	{name: "client.snapshot_ms_p50", unit: "ms", better: "lower", on: warmOnly},
	{name: "client.latency_ms_p95", unit: "ms", better: "lower", on: serveBoth},
	{name: "client.latency_ms_p99", unit: "ms", better: "lower", on: serveBoth},
	{name: "client.requests_per_op", unit: "count", better: "lower", on: serveBoth},
	{name: "server.span.queue_wait_ms", unit: "ms", better: "lower", on: coldOnly},
	{name: "server.span.run_ms", unit: "ms", better: "lower", on: coldOnly},
	{name: "server.span.verify_ms", unit: "ms", better: "lower", on: coldOnly},
	{name: "server.persist_ms", unit: "ms", better: "lower", on: coldOnly},
	{name: "server.unattributed_ms", unit: "ms", better: "lower", on: serveBoth},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher", on: serveBoth},
	{name: "store.put_ms", unit: "ms", better: "lower", on: coldOnly},
	{name: "store.read_ms", unit: "ms", better: "lower", on: serveBoth},
	{name: "store.open_ms", unit: "ms", better: "lower", on: serveBoth},
	{name: "store.hit_ratio", unit: "ratio", better: "higher", on: serveBoth},
	{name: "store.bytes_per_job", unit: "bytes", better: "lower", on: serveBoth},
	{name: "go.allocs_per_op", unit: "allocs", better: "lower"},
	{name: "go.alloc_kb_per_op", unit: "KB", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics by name; put refuses an undeclared
// name or a second value so a typo cannot mint a metric.
type metricSet struct {
	workload string
	defs     []metricDef
	vals     map[string]value
	errs     []string
}

func newMetricSet(w string, defs []metricDef) *metricSet {
	return &metricSet{workload: w, defs: defs, vals: map[string]value{}}
}

func (m *metricSet) put(name string, v float64) {
	for _, d := range m.defs {
		if d.name != name {
			continue
		}
		if !d.declaredOn(m.workload) {
			m.errs = append(m.errs, "metric "+name+" is not declared on "+m.workload)
			return
		}
		if _, dup := m.vals[name]; dup {
			m.errs = append(m.errs, "metric "+name+" emitted twice")
			return
		}
		m.vals[name] = value{Value: v, Unit: d.unit}
		return
	}
	m.errs = append(m.errs, "metric "+name+" is not declared")
}

// declares reports whether the workload declares the metric.
func (m *metricSet) declares(name string) bool {
	for _, d := range m.defs {
		if d.name == name {
			return d.declaredOn(m.workload)
		}
	}
	return false
}

// missing lists the declared metrics the run did not emit.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.vals[d.name]; !ok && d.declaredOn(m.workload) {
			out = append(out, d.name)
		}
	}
	return out
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// referenceSeconds is the run length the op counts below are written for;
// --seconds scales them. Windows are fixed by op count, not by the clock, so
// two commits measured with the same --seconds do identical work.
const referenceSeconds = 12

// sizes fixes how much work one run does.
type sizes struct {
	engineN         int // approximate particle count of the three engine workloads
	engineNeighbors int // 0 keeps the scenario default (100)
	warmSteps       int
	evrardSteps     int
	sedovSteps      int
	squareSteps     int
	probeEvery      int // traced serial runs replay the layers on every probeEvery-th step
	effSteps        int // timed steps of each arm of core.parallel_efficiency

	coldWarmup int
	coldJobs   int
	warmKeys   int // distinct stored jobs serve-warm resubmits
	warmWarmup int
	warmOps    int

	setups    int // set-ups per untraced run; setup_s is their median
	layerReps int // repetitions of the direct layer probes (store, scenario, domain)
}

// fullSizes are the counts of ISSUE 11 at the reference run length, scaled
// by --seconds but never below 30 timed steps and 400 timed jobs, which
// keep ten samples beyond client.latency_ms_p95.
func fullSizes(seconds int) sizes {
	scale := func(n, floor int) int {
		v := int(math.Round(float64(n) * float64(seconds) / referenceSeconds))
		if v < floor {
			v = floor
		}
		return v
	}
	return sizes{
		engineN: 8000, warmSteps: 2,
		evrardSteps: scale(45, 30), sedovSteps: scale(40, 30), squareSteps: scale(45, 30),
		probeEvery: 5, effSteps: 5,
		coldWarmup: 10, coldJobs: scale(1000, 400),
		warmKeys: 64, warmWarmup: 200, warmOps: scale(30000, 400),
		setups: 5, layerReps: 64,
	}
}

// job is the tiny spec both serve workloads submit (the legacy
// server-submit-complete shape); energy is drawn per job from the seed.
const (
	jobScenario  = "sedov"
	jobN         = 216
	jobNeighbors = 20
	jobSteps     = 2
	jobCores     = 4
)

// runCtx is what a workload gets: the inputs come from seed, the program
// under test only ever sees the generated specs.
type runCtx struct {
	seed    int64
	seconds int
	sz      sizes
	rec     *recorder // nil on the untraced pass
	setups  int
	tmpDir  string // scratch directory inside the checkout, removed after the run
	// inside is installed on the traced pass's recorder; only the
	// attribution test sets it.
	inside func(span string)
}

// pass is the outcome of one timed window of one workload.
type pass struct {
	setupS     []float64 // seconds per set-up, warm-up ops included
	opMS       []float64 // wall of every timed op
	windowS    float64   // wall of the timed window
	workUnits  float64   // particle-steps computed or delivered in the window
	stepsPerOp float64   // steps one op delivers: 1 on the engine workloads, the job's steps on serve
	digest     string    // fingerprint of the final state (engine) or of every response body (serve)

	checks
	mem memDelta

	// layers are per-layer values this pass measured directly (not from
	// spans); exact names those that are counts of work done and must repeat
	// exactly between the untraced and the traced pass.
	layers map[string]float64
	exact  []string
}

// checks counts ops and correctness checks against the number attempted.
type checks struct {
	attempted int
	failed    int
	failures  []string // first few messages
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// memDelta is the runtime.MemStats movement over a timed window.
type memDelta struct {
	mallocs uint64
	bytes   uint64
	pauseNS uint64
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := memNow()
	return memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		pauseNS: after.PauseTotalNs - before.PauseTotalNs,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var passes = map[string]func(runCtx) (*pass, error){
	evrardSerial: func(c runCtx) (*pass, error) { return serialPass(c, evrardSerial) },
	sedovSerial:  func(c runCtx) (*pass, error) { return serialPass(c, sedovSerial) },
	squareRanks:  ranksPass,
	serveCold:    coldPass,
	serveWarm:    warmPass,
}

// record is everything one run of one workload produced. The contract's
// result line is a projection of it; a set file keeps every record.
type record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Traced    bool             `json:"traced"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Digest    string           `json:"digest"`
	Metrics   map[string]value `json:"metrics"`
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(name string, c runCtx) (*record, error) {
	c.setups = c.sz.setups
	p, err := passes[name](c)
	if err != nil {
		return nil, err
	}
	m := newMetricSet(name, endToEnd)
	m.put("setup_s", median(p.setupS))
	m.put("particle_steps_per_s", p.workUnits/p.windowS)
	m.put("step_ms_p50", median(p.opMS)/p.stepsPerOp)
	m.put("jobs_per_s", float64(len(p.opMS))/p.windowS)
	m.put("latency_ms_p50", median(p.opMS))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.put("peak_rss_mb", rss)
	return finish(name, c, false, p.checks, p.digest, m), nil
}

// runTraced measures the per-layer metrics: one untraced pass for the
// reference wall, allocation counts and digest, then the same window with
// spans recorded, whose trace is written to traceOut.
func runTraced(name string, c runCtx, traceOut string) (*record, error) {
	c.setups = 1
	plain, err := passes[name](c)
	if err != nil {
		return nil, err
	}
	c.rec = newRecorder()
	c.rec.inside = c.inside
	traced, err := passes[name](c)
	if err != nil {
		return nil, err
	}
	spans := c.rec.snapshot()

	ck := traced.checks
	ck.attempted += plain.attempted
	ck.failed += plain.failed
	ck.failures = append(ck.failures, plain.failures...)
	ck.check(plain.digest == traced.digest,
		"final digest differs between the untraced (%s) and the traced (%s) pass", plain.digest, traced.digest)
	for _, k := range traced.exact {
		ck.check(plain.layers[k] == traced.layers[k],
			"count %s differs: untraced %v, traced %v", k, plain.layers[k], traced.layers[k])
	}

	m := newMetricSet(name, perLayer)
	for _, k := range sortedKeys(traced.layers) {
		m.put(k, traced.layers[k])
	}
	spanMetrics(name, m, spans, plain, traced)
	ops := float64(len(plain.opMS))
	m.put("go.allocs_per_op", float64(plain.mem.mallocs)/ops)
	m.put("go.alloc_kb_per_op", float64(plain.mem.bytes)/1024/ops)
	m.put("go.gc_pause_ms", float64(plain.mem.pauseNS)/1e6/ops)
	m.put("trace.overhead_frac", (traced.windowS-plain.windowS)/plain.windowS)

	if traceOut != "" {
		meta := map[string]string{
			"workload":   name,
			"seed":       strconv.FormatInt(c.seed, 10),
			"goVersion":  runtime.Version(),
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		}
		if err := writeTrace(traceOut, name, spans, trackNames(name), meta); err != nil {
			return nil, err
		}
	}
	return finish(name, c, true, ck, traced.digest, m), nil
}

func finish(name string, c runCtx, traced bool, ck checks, digest string, m *metricSet) *record {
	for _, e := range m.errs {
		ck.check(false, "%s", e)
	}
	for _, miss := range m.missing() {
		ck.check(false, "metric %s was not emitted", miss)
	}
	for _, k := range sortedKeys(m.vals) {
		v := m.vals[k].Value
		ck.check(!math.IsNaN(v) && !math.IsInf(v, 0), "metric %s is not finite", k)
	}
	return &record{
		Workload: name, Seed: c.seed, Seconds: c.seconds, Traced: traced,
		Attempted: ck.attempted, Failed: ck.failed, Failures: ck.failures,
		Digest: digest, Metrics: m.vals,
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

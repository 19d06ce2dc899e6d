package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// toySizes runs every code path of every workload in well under a second.
func toySizes() sizes {
	return sizes{
		engineN: 216, engineNeighbors: 20, warmSteps: 1,
		evrardSteps: 3, sedovSteps: 3, squareSteps: 3,
		probeEvery: 1, effSteps: 2,
		coldWarmup: 2, coldJobs: 10,
		warmKeys: 4, warmWarmup: 5, warmOps: 50,
		setups: 2, layerReps: 4,
	}
}

func toyCtx(t *testing.T) runCtx {
	return runCtx{seed: 7, seconds: 1, sz: toySizes(), tmpDir: t.TempDir()}
}

// The file the driver reads and the declarations the program reports by
// must say the same thing.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if got := strings.Join(doc.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if doc.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds = %d, the op counts are written for %d", doc.RunSeconds, referenceSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, declared %+v", i, doc.Workloads[i], w)
		}
		if _, ok := passes[w.name]; !ok {
			t.Errorf("workload %s has no pass", w.name)
		}
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, declared %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v, declared %v (must be in (0, 0.25])", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s carries a bound", kind, d.name)
			}
			if !nameOK.MatchString(d.name) || !unitOK.MatchString(d.unit) {
				t.Errorf("%s %s [%s]: name or unit outside the contract's alphabet", kind, d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.name, d.better)
			}
			if seen[d.name] {
				t.Errorf("metric name %s is used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// Every workload at toy size emits each metric declared for it exactly once,
// finite and with a unit, fails no op, starves the layer it claims to, and
// leaves a loadable trace.
func TestToyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := toyCtx(t)
			plain, err := runUntraced(w.name, c)
			if err != nil {
				t.Fatal(err)
			}
			tracePath := filepath.Join(c.tmpDir, w.name+".trace.json")
			traced, err := runTraced(w.name, c, tracePath)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []*record{plain, traced} {
				if rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("traced=%v: %d of %d ops failed: %v", rec.Traced, rec.Failed, rec.Attempted, rec.Failures)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("digest %s untraced, %s traced", plain.Digest, traced.Digest)
			}
			for _, tc := range []struct {
				rec  *record
				defs []metricDef
			}{{plain, endToEnd}, {traced, perLayer}} {
				want := 0
				for _, d := range tc.defs {
					v, ok := tc.rec.Metrics[d.name]
					if !d.declaredOn(w.name) {
						if ok {
							t.Errorf("%s is not declared on %s but was emitted", d.name, w.name)
						}
						continue
					}
					want++
					if !ok {
						t.Errorf("%s was not emitted", d.name)
					} else if v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v %q, want a finite value in %s", d.name, v.Value, v.Unit, d.unit)
					}
				}
				if len(tc.rec.Metrics) != want {
					t.Errorf("%d metrics emitted, %d declared", len(tc.rec.Metrics), want)
				}
			}
			for _, d := range endToEnd {
				if plain.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, must never be 0", d.name, plain.Metrics[d.name].Value)
				}
			}

			layer := func(name string) float64 { return traced.Metrics[name].Value }
			switch w.name {
			case serveCold:
				if layer("server.cache_hit_ratio") != 0 || layer("client.requests_per_op") != 2 {
					t.Errorf("serve-cold: cache hit ratio %v, requests per op %v", layer("server.cache_hit_ratio"), layer("client.requests_per_op"))
				}
			case serveWarm:
				if layer("server.cache_hit_ratio") != 1 || layer("client.requests_per_op") != 3 || layer("store.hit_ratio") != 1 {
					t.Errorf("serve-warm: cache hit ratio %v, requests per op %v, store hit ratio %v",
						layer("server.cache_hit_ratio"), layer("client.requests_per_op"), layer("store.hit_ratio"))
				}
			case evrardSerial:
				if layer("gravity.accel_ms") <= 0 || layer("gravity.pair_interactions") <= 0 {
					t.Errorf("evrard-serial: gravity did no work: %v ms, %v pair interactions", layer("gravity.accel_ms"), layer("gravity.pair_interactions"))
				}
			case sedovSerial:
				if _, ok := traced.Metrics["gravity.accel_ms"]; ok {
					t.Error("sedov-serial reports gravity.accel_ms; gravity is off")
				}
			}
			for name := range traced.Metrics {
				if w.name != squareRanks && (strings.HasPrefix(name, "domain.") || strings.HasPrefix(name, "simmpi.")) {
					t.Errorf("%s appears on %s", name, w.name)
				}
			}

			var doc traceDoc
			if err := readJSON(tracePath, &doc); err != nil {
				t.Fatal(err)
			}
			slices := 0
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" {
					slices++
					if ev.Dur < 0 || ev.Args["op"] == "" || ev.Args["parent"] == "" {
						t.Fatalf("malformed slice %+v", ev)
					}
				}
			}
			if slices == 0 {
				t.Error("trace holds no spans")
			}
		})
	}
}

// The contract's last line carries exactly the declared names: seven
// end-to-end metrics untraced, every per-layer metric traced, with 0 for
// the ones the workload does not declare.
func TestResultLine(t *testing.T) {
	for _, tc := range []struct {
		rec  *record
		defs []metricDef
	}{
		{&record{Attempted: 3, Metrics: map[string]value{"setup_s": {1.5, "s"}}}, endToEnd},
		{&record{Traced: true, Attempted: 3, Failed: 1, Metrics: map[string]value{"tree.build_ms": {2, "ms"}}}, perLayer},
	} {
		var buf bytes.Buffer
		if err := printResultLine(&buf, tc.rec); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
			t.Errorf("result line keys: %s", buf.String())
		}
		if want := tc.rec.Failed == 0; string(line["correct"]) != map[bool]string{true: "true", false: "false"}[want] {
			t.Errorf("correct = %s with %d failed", line["correct"], tc.rec.Failed)
		}
		var metrics map[string]value
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.defs) {
			t.Errorf("%d metrics on the line, %d declared", len(metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if metrics[d.name].Unit != d.unit {
				t.Errorf("%s: unit %q, want %q", d.name, metrics[d.name].Unit, d.unit)
			}
		}
	}
}

// An injected delay inside one layer's span is attributed to that layer and
// to no other, and -compare names it as the largest delta (ROADMAP item 1's
// acceptance, without touching the program).
func TestAttribution(t *testing.T) {
	const delay = 20 * time.Millisecond
	const layerSpan, layerMetric = spanDensity, "sph.density_ms"
	c := toyCtx(t)
	base, err := runTraced(sedovSerial, c, "")
	if err != nil {
		t.Fatal(err)
	}
	// A sleep can overrun on a busy machine; what counts is that the layer
	// moves by what was actually injected.
	var injected []float64
	c.inside = func(name string) {
		if name == layerSpan {
			t0 := time.Now()
			time.Sleep(delay)
			injected = append(injected, ms(time.Since(t0)))
		}
	}
	slowed, err := runTraced(sedovSerial, c, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if d.unit != "ms" || !d.declaredOn(sedovSerial) || strings.HasPrefix(d.name, "go.") {
			continue
		}
		moved := slowed.Metrics[d.name].Value - base.Metrics[d.name].Value
		want := 0.0
		if d.name == layerMetric {
			want = median(injected)
		}
		if math.Abs(moved-want) > 2 {
			t.Errorf("%s moved by %.3f ms, want %.3f ms within 2 ms", d.name, moved, want)
		}
	}

	a := &setFile{Runs: []record{*base}}
	b := &setFile{Runs: []record{*slowed}}
	a.summarize()
	b.summarize()
	var out bytes.Buffer
	compareSets(&out, a, b)
	if want := "sedov-serial: largest time delta: " + layerMetric; !strings.Contains(out.String(), want) {
		t.Errorf("-compare does not say %q:\n%s", want, out.String())
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "latency_ms_p50", better: "lower", bound: 0.10}
	higher := metricDef{name: "jobs_per_s", better: "higher", bound: 0.10}
	sum := func(xs ...float64) summary { return summarize("x", xs) }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b summary
		want string
	}{
		{"within the bound and the spread", lower, sum(100, 101, 102), sum(101, 102, 103), verdictSame},
		{"slower by more than the bound", lower, sum(100, 101, 102), sum(115, 116, 117), verdictWorse},
		{"faster by more than A's spread", lower, sum(100, 101, 102), sum(90, 91, 92), verdictBetter},
		{"throughput down by more than the bound", higher, sum(100, 101, 102), sum(85, 86, 87), verdictWorse},
		{"throughput up", higher, sum(100, 101, 102), sum(110, 111, 112), verdictBetter},
		{"A too noisy to tell", lower, sum(80, 100, 125), sum(99, 101, 104), verdictUnresolved},
		{"A noisy but every B run beats every A run", lower, sum(80, 100, 125), sum(60, 65, 70), verdictBetter},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFlagsWorseRowsAndFailedOps(t *testing.T) {
	mk := func(latency float64, failed int) *setFile {
		s := &setFile{}
		for i := 0; i < 3; i++ {
			s.Runs = append(s.Runs, record{
				Workload: serveWarm, Attempted: 100, Failed: failed, Digest: "d",
				Metrics: map[string]value{"latency_ms_p50": {latency + float64(i)*0.01, "ms"}},
			})
		}
		s.summarize()
		return s
	}
	var out bytes.Buffer
	if compareSets(&out, mk(1, 0), mk(1.005, 0)) {
		t.Errorf("an unchanged set compares as worse:\n%s", out.String())
	}
	if !compareSets(&out, mk(1, 0), mk(1.5, 0)) {
		t.Error("a 50% slower median does not compare as worse")
	}
	if !compareSets(&out, mk(1, 0), mk(1, 2)) {
		t.Error("a higher share of failed ops does not compare as worse")
	}
}

// A digest that differs between runs of one workload is a failed op.
func TestSetCountsDigestMismatch(t *testing.T) {
	s := &setFile{Runs: []record{
		{Workload: evrardSerial, Attempted: 10, Digest: "aa"},
		{Workload: evrardSerial, Attempted: 10, Digest: "ab"},
	}}
	s.summarize()
	if oc := s.Ops[evrardSerial]; oc.Failed != 1 || oc.Attempted != 22 {
		t.Errorf("ops = %+v, want 1 failed of 22", oc)
	}
}

// The spread must be the one the benchmark contract computes with Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v; Python gives 1, 3", q1, q3)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5}, 95); math.Abs(p-4.8) > 1e-12 {
		t.Errorf("p95 of 1..5 = %v, want 4.8", p)
	}
}

// A failing check is counted and reported, and the run still has metrics.
func TestFailedChecksAreCounted(t *testing.T) {
	var ck checks
	ck.check(true, "fine")
	ck.check(false, "energy drift %g", 0.5)
	m := newMetricSet(sedovSerial, endToEnd)
	m.put("setup_s", 1)
	m.put("setup_s", 2)          // twice
	m.put("gravity.accel_ms", 1) // not an end-to-end metric
	rec := finish(sedovSerial, runCtx{}, false, ck, "d", m)
	if rec.Failed < 3 || len(rec.Metrics) != 1 || !strings.Contains(strings.Join(rec.Failures, "\n"), "energy drift 0.5") {
		t.Errorf("record = %+v", rec)
	}
}

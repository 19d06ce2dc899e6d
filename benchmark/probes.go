package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/perfmodel"
	"repro/internal/scenario"
	"repro/internal/store"
)

// trackLayers is the trace row of the direct layer probes of the serve
// workloads (rows 1 and 2 are the clients).
const trackLayers = 3

// Span names of the direct layer probes.
const (
	spanStorePut  = "store.put"
	spanStoreRead = "store.read"
	spanStoreOpen = "store.open"
	spanDecode    = "scenario.decode"
	spanHash      = "scenario.canonical_hash"
	spanGenerate  = "scenario.generate"
	spanTinyRun   = "core.tiny_run"
)

// The server's lifecycle phase names, as the persisted report's spans and
// job_phase_seconds{phase} spell them.
const (
	phaseQueueWait = "queue-wait"
	phaseRun       = "run"
	phaseVerify    = "verify"
	phasePersist   = "persist"
)

const (
	tinyRunReps   = 20
	storeOpenReps = 5
)

// spanMetric maps a span name to the per-layer metric that reports the
// median of its spans; scale converts milliseconds to the metric's unit.
var spanMetric = []struct {
	span, metric string
	scale        float64
}{
	{spanTree, "tree.build_ms", 1},
	{spanNeighbors, "sph.neighbors_ms", 1},
	{spanDensity, "sph.density_ms", 1},
	{spanEOS, "sph.eos_ms", 1},
	{spanIAD, "sph.iad_ms", 1},
	{spanForces, "sph.forces_ms", 1},
	{spanGravity, "gravity.accel_ms", 1},
	{spanDecompose, "domain.decompose_ms", 1},
	{spanPlanHalo, "domain.plan_halo_ms", 1},
	{spanSubmit, "client.submit_ms_p50", 1},
	{spanWait, "client.wait_ms_p50", 1},
	{spanGetMetrics, "client.metrics_ms_p50", 1},
	{spanSnapshot, "client.snapshot_ms_p50", 1},
	{spanStorePut, "store.put_ms", 1},
	{spanStoreRead, "store.read_ms", 1},
	{spanStoreOpen, "store.open_ms", 1},
	{spanDecode, "scenario.decode_us", 1000},
	{spanHash, "scenario.canonical_hash_us", 1000},
	{spanGenerate, "scenario.generate_ms", 1},
	{spanTinyRun, "core.tiny_run_ms", 1},
}

// spanMetrics derives the per-layer metrics that come from spans.
func spanMetrics(name string, m *metricSet, spans []span, plain, traced *pass) {
	for _, sm := range spanMetric {
		if !m.declares(sm.metric) {
			continue
		}
		if d := durationsMS(spans, sm.span); len(d) > 0 {
			m.put(sm.metric, median(d)*sm.scale)
		}
	}
	switch name {
	case evrardSerial, sedovSerial:
		if f, ok := m.vals["sph.forces_ms"]; ok && f.Value > 0 {
			m.put("sph.forces_mpairs_per_s", traced.layers["sph.pair_interactions"]/(f.Value/1e3)/1e6)
		}
		// Coverage: the replayed layer spans of a probed step over the real
		// step they name as parent.
		children := map[int]float64{}
		for _, s := range spans {
			if s.Parent >= 0 {
				children[s.Parent] += ms(s.End - s.Start)
			}
		}
		var cover []float64
		for _, s := range spans {
			if sum, ok := children[s.ID]; ok && s.Name == spanStep {
				cover = append(cover, sum/ms(s.End-s.Start))
			}
		}
		m.put("core.probe_coverage", median(cover))
	case serveCold, serveWarm:
		m.put("client.latency_ms_p95", percentile(plain.opMS, 95))
		m.put("client.latency_ms_p99", percentile(plain.opMS, 99))
	}
}

func trackNames(name string) map[int]string {
	switch name {
	case serveCold, serveWarm:
		return map[int]string{1: "client 1", 2: "client 2", trackLayers: "layer probes"}
	}
	return map[int]string{trackEngine: "engine", trackProbe: "probe (clone)"}
}

// coldLayers reads what the server recorded about the timed jobs and drives
// the layers under the serve-cold op directly.
func coldLayers(c runCtx, p *pass, env *serveEnv, ids []string, bodies [][]byte) error {
	cl := &client{env: env}
	var queue, run, verify []float64
	for _, id := range ids {
		b, err := cl.get("", -1, 0, "/v1/jobs/"+id+"/metrics")
		if err != nil {
			return err
		}
		var rep struct {
			Spans struct {
				Phases []struct {
					Name    string  `json:"name"`
					Seconds float64 `json:"seconds"`
				} `json:"phases"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(b, &rep); err != nil {
			return fmt.Errorf("decoding report of %s: %w", id, err)
		}
		for _, ph := range rep.Spans.Phases {
			switch ph.Name {
			case phaseQueueWait:
				queue = append(queue, ph.Seconds*1e3)
			case phaseRun:
				run = append(run, ph.Seconds*1e3)
			case phaseVerify:
				verify = append(verify, ph.Seconds*1e3)
			}
		}
	}
	p.layers["server.span.queue_wait_ms"] = median(queue)
	p.layers["server.span.run_ms"] = median(run)
	p.layers["server.span.verify_ms"] = median(verify)

	persist, err := persistMS(cl)
	if err != nil {
		return err
	}
	p.layers["server.persist_ms"] = persist
	p.layers["server.unattributed_ms"] = median(p.opMS) - (median(queue) + median(run) + median(verify) + persist)

	st, err := storeStats(env)
	if err != nil {
		return err
	}
	storeLayers(p, st)
	if err := storeProbe(c, cl, bodies[0]); err != nil {
		return err
	}
	if err := scenarioProbe(c, bodies, true); err != nil {
		return err
	}
	return tinyRunProbe(c, bodies[0])
}

// warmLayers drives the layers under the serve-warm op directly; the whole
// op is unattributed server time, since no job runs.
func warmLayers(c runCtx, p *pass, env *serveEnv, st store.Stats, bodies [][]byte) error {
	p.layers["server.unattributed_ms"] = median(p.opMS)
	storeLayers(p, st)
	if err := storeProbe(c, &client{env: env}, bodies[0]); err != nil {
		return err
	}
	return scenarioProbe(c, bodies, false)
}

func storeLayers(p *pass, st store.Stats) {
	p.layers["store.hit_ratio"] = st.HitRate
	p.layers["store.bytes_per_job"] = float64(st.Bytes) / float64(st.Entries)
}

// persistMS reads the mean persist phase from /metricsz: it is measured
// after the report is marshaled, so it exists only in the registry.
func persistMS(cl *client) (float64, error) {
	b, err := cl.get("", -1, 0, "/metricsz")
	if err != nil {
		return 0, err
	}
	var sum, count float64
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		for _, f := range []struct {
			prefix string
			dst    *float64
		}{
			{`job_phase_seconds_sum{phase="` + phasePersist + `"} `, &sum},
			{`job_phase_seconds_count{phase="` + phasePersist + `"} `, &count},
		} {
			if rest, ok := strings.CutPrefix(line, f.prefix); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return 0, fmt.Errorf("parsing %q: %w", line, err)
				}
				*f.dst = v
			}
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("/metricsz has no job_phase_seconds samples for phase %q", phasePersist)
	}
	return sum / count * 1e3, nil
}

// storeProbe drives the store with one real job's bytes against a scratch
// store: the three writes Server.run makes per job, the two reads a cache
// hit makes, and Open of the populated directory.
func storeProbe(c runCtx, cl *client, body []byte) error {
	view, _, err := cl.submit(-1, 0, body)
	if err != nil {
		return err
	}
	var parts [3][]byte
	for i, path := range []string{"/snapshot", "/metrics", "/telemetry"} {
		b, err := cl.get("", -1, 0, "/v1/jobs/"+view.ID+path)
		if err != nil {
			return err
		}
		parts[i] = b
	}
	snapshot, report, telemetry := parts[0], parts[1], parts[2]

	dir, err := os.MkdirTemp(c.tmpDir, "store-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	hashes := make([]string, c.sz.layerReps)
	for i := range hashes {
		hashes[i] = fmt.Sprintf("%x", sha256.Sum256([]byte(strconv.Itoa(i))))
		id := c.rec.open(spanStorePut, -1, i, trackLayers)
		err := st.Put(store.Meta{Hash: hashes[i], Particles: jobN, Steps: jobSteps}, snapshot)
		if err == nil {
			err = st.PutReport(hashes[i], report)
		}
		if err == nil {
			err = st.PutTelemetry(hashes[i], telemetry)
		}
		c.rec.end(id)
		if err != nil {
			return fmt.Errorf("store probe put: %w", err)
		}
	}
	for i, h := range hashes {
		id := c.rec.open(spanStoreRead, -1, i, trackLayers)
		_, _, err := st.ReadObject(h)
		_, ok := st.ReadReport(h)
		c.rec.end(id)
		if err != nil || !ok {
			return fmt.Errorf("store probe read of %s: object %v, report found %v", h, err, ok)
		}
	}
	for i := 0; i < storeOpenReps; i++ {
		id := c.rec.open(spanStoreOpen, -1, i, trackLayers)
		_, err := store.Open(dir, store.Options{})
		c.rec.end(id)
		if err != nil {
			return fmt.Errorf("store probe open: %w", err)
		}
	}
	return nil
}

// scenarioProbe times, on the workload's own specs, the decode and the
// canonicalise+hash every submit pays, and the generation a computed job
// pays.
func scenarioProbe(c runCtx, bodies [][]byte, generate bool) error {
	if len(bodies) > c.sz.layerReps {
		bodies = bodies[:c.sz.layerReps]
	}
	for i, body := range bodies {
		var spec scenario.JobSpec
		id := c.rec.open(spanDecode, -1, i, trackLayers)
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&spec)
		c.rec.end(id)
		if err != nil {
			return fmt.Errorf("scenario probe decode: %w", err)
		}
		id = c.rec.open(spanHash, -1, i, trackLayers)
		canon, _, err := spec.CanonicalHash()
		c.rec.end(id)
		if err != nil {
			return fmt.Errorf("scenario probe hash: %w", err)
		}
		if !generate {
			continue
		}
		sc, err := scenario.Get(canon.Scenario)
		if err != nil {
			return err
		}
		id = c.rec.open(spanGenerate, -1, i, trackLayers)
		_, _, err = sc.Generate(canon.Params)
		c.rec.end(id)
		if err != nil {
			return fmt.Errorf("scenario probe generate: %w", err)
		}
	}
	return nil
}

// tinyRunProbe times the bare engine run of the serve-cold job spec, the
// way Server.run's parallel chunk configures it; the gap to
// server.span.run_ms is server-side run overhead.
func tinyRunProbe(c runCtx, body []byte) error {
	var spec scenario.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return err
	}
	canon, _, err := spec.CanonicalHash()
	if err != nil {
		return err
	}
	sc, err := scenario.Get(canon.Scenario)
	if err != nil {
		return err
	}
	for i := 0; i < tinyRunReps; i++ {
		ps, cfg, err := sc.Generate(canon.Params)
		if err != nil {
			return err
		}
		id := c.rec.open(spanTinyRun, -1, i, trackLayers)
		_, _, err = core.RunParallelCapture(core.ParallelConfig{
			Core:         cfg,
			Machine:      perfmodel.PizDaint(),
			Cores:        canon.Cores,
			RanksPerNode: canon.RanksPerNode,
			Decomp:       domain.MortonSFC,
			Cost:         serviceCost(),
			Steps:        canon.Steps,
		}, ps)
		c.rec.end(id)
		if err != nil {
			return fmt.Errorf("tiny run probe: %w", err)
		}
	}
	return nil
}

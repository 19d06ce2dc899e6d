package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/store"
)

// serveClients is the closed loop's client count: the shipped callers
// (pkg/client, cmd/sphexa -server) each wait for their reply, and the
// sandbox has two cores.
const serveClients = 2

// Span names of the client's HTTP calls; the per-layer metric is the name +
// "_ms_p50".
const (
	spanOp         = "client.op"
	spanSubmit     = "client.submit"
	spanWait       = "client.wait"
	spanGetMetrics = "client.metrics"
	spanSnapshot   = "client.snapshot"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// serveEnv is one long-lived server with the product defaults (2 workers,
// queue 64) over a disk store, behind a real HTTP listener.
type serveEnv struct {
	srv      *server.Server
	ts       *httptest.Server
	requests atomic.Int64 // HTTP requests the clients sent
	hits     atomic.Int64 // submits answered with cacheHit
}

func startServe(dir string) (*serveEnv, error) {
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{Store: st, DataDir: filepath.Join(dir, "data")})
	return &serveEnv{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (e *serveEnv) stop() {
	e.ts.Close()
	e.srv.Close()
}

// jobBody is the JSON a client posts: the tiny sedov job with its energy.
func jobBody(energy float64) []byte {
	b, err := json.Marshal(scenario.JobSpec{Spec: scenario.Spec{
		Scenario: jobScenario,
		Params: scenario.Params{
			N: jobN, NNeighbors: jobNeighbors,
			Extra: map[string]float64{"energy": energy},
		},
		Steps: jobSteps,
		Cores: jobCores,
	}})
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	return b
}

// jobBodies draws n distinct job specs from the seed; offset keeps the
// warm-up jobs distinct from the timed ones.
func jobBodies(seed int64, offset, n int) [][]byte {
	base := 1 + 0.005*(2*rand.New(rand.NewSource(seed)).Float64()-1)
	out := make([][]byte, n)
	for i := range out {
		out[i] = jobBody(base + float64(offset+i)*1e-6)
	}
	return out
}

// client is one closed-loop caller; track is its row in the trace.
type client struct {
	env   *serveEnv
	rec   *recorder
	track int
}

// get reads one resource under a span and returns its body; any status but
// 200 is an error.
func (cl *client) get(span string, parent, op int, path string) ([]byte, error) {
	id := cl.rec.open(span, parent, op, cl.track)
	defer cl.rec.end(id)
	cl.env.requests.Add(1)
	resp, err := cl.env.ts.Client().Get(cl.env.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, b)
	}
	return b, nil
}

// submit posts a job spec and decodes the view the server answers with.
func (cl *client) submit(parent, op int, body []byte) (server.JobView, int, error) {
	id := cl.rec.open(spanSubmit, parent, op, cl.track)
	defer cl.rec.end(id)
	cl.env.requests.Add(1)
	var view server.JobView
	resp, err := cl.env.ts.Client().Post(cl.env.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return view, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return view, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return view, resp.StatusCode, fmt.Errorf("POST /v1/jobs: %d %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &view); err != nil {
		return view, resp.StatusCode, err
	}
	if view.CacheHit {
		cl.env.hits.Add(1)
	}
	return view, resp.StatusCode, nil
}

// wait follows the job's server-sent events to the terminal frame. SSE
// rather than polling, so poll granularity does not hide server time.
func (cl *client) wait(parent, op int, jobID string) (server.JobView, error) {
	id := cl.rec.open(spanWait, parent, op, cl.track)
	defer cl.rec.end(id)
	cl.env.requests.Add(1)
	var view server.JobView
	resp, err := cl.env.ts.Client().Get(cl.env.ts.URL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("GET events of %s: %d", jobID, resp.StatusCode)
	}
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if frame, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: ")); ok {
			last = append(last[:0], frame...)
		}
	}
	if err := sc.Err(); err != nil {
		return view, err
	}
	if last == nil {
		return view, fmt.Errorf("events of %s closed without a frame", jobID)
	}
	return view, json.Unmarshal(last, &view)
}

// computeJob is the serve-cold op: submit a job nobody has run and follow it
// to its terminal frame. It fails unless the job was computed, completed and
// passed its verify roll-up.
func (cl *client) computeJob(op int, body []byte) (server.JobView, error) {
	root := cl.rec.open(spanOp, -1, op, cl.track)
	defer cl.rec.end(root)
	view, _, err := cl.submit(root, op, body)
	if err != nil {
		return view, err
	}
	if view.CacheHit {
		return view, fmt.Errorf("job %s was a cache hit; serve-cold submits distinct jobs", view.ID)
	}
	if view, err = cl.wait(root, op, view.ID); err != nil {
		return view, err
	}
	if view.State != server.StateCompleted {
		return view, fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	if view.Verify == nil || !view.Verify.Pass {
		return view, fmt.Errorf("job %s failed its verify roll-up", view.ID)
	}
	return view, nil
}

// stored is what populate recorded of one computed job: the body that
// resubmits it and the CRCs its metrics and snapshot must keep forever.
type stored struct {
	body        []byte
	metricsCRC  uint64
	snapshotCRC uint64
}

// readJob is the serve-warm op: resubmit a stored job (a cache hit), then
// read its metrics and its snapshot. It fails unless the submit was a cache
// hit and both bodies are byte-identical to populate time.
func (cl *client) readJob(op int, want stored) error {
	root := cl.rec.open(spanOp, -1, op, cl.track)
	defer cl.rec.end(root)
	view, status, err := cl.submit(root, op, want.body)
	if err != nil {
		return err
	}
	if !view.CacheHit || status != http.StatusOK || view.State != server.StateCompleted {
		return fmt.Errorf("resubmission %s: status %d, state %s, cacheHit %v", view.ID, status, view.State, view.CacheHit)
	}
	for _, r := range []struct {
		span, path string
		crc        uint64
	}{
		{spanGetMetrics, "/metrics", want.metricsCRC},
		{spanSnapshot, "/snapshot", want.snapshotCRC},
	} {
		b, err := cl.get(r.span, root, op, "/v1/jobs/"+view.ID+r.path)
		if err != nil {
			return err
		}
		if got := crc64.Checksum(b, crcTable); got != r.crc {
			return fmt.Errorf("%s of %s: CRC %016x, populate-time CRC %016x", r.path, view.ID, got, r.crc)
		}
	}
	return nil
}

// closedLoop runs n ops on serveClients clients, each sending its next op
// only after the previous one completed. It returns every op's wall, the
// loop's wall, and every op's error.
func closedLoop(env *serveEnv, rec *recorder, n int, op func(cl *client, i int) error) (opMS []float64, wall time.Duration, errs []error) {
	opMS = make([]float64, n)
	errs = make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < serveClients; k++ {
		cl := &client{env: env, rec: rec, track: k + 1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				errs[i] = op(cl, i)
				opMS[i] = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	return opMS, time.Since(start), errs
}

// firstError returns the first non-nil error of a warm-up or populate loop,
// where any failure aborts the run.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// storeStats reads GET /v1/store.
func storeStats(env *serveEnv) (store.Stats, error) {
	var st store.Stats
	b, err := (&client{env: env}).get("", -1, 0, "/v1/store")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

// serveWindow runs the timed closed loop and fills the pass's common fields.
func serveWindow(p *pass, env *serveEnv, rec *recorder, n int, op func(cl *client, i int) error) {
	env.requests.Store(0)
	env.hits.Store(0)
	mem := memNow()
	opMS, wall, errs := closedLoop(env, rec, n, op)
	p.mem = memSince(mem)
	p.opMS, p.windowS = opMS, wall.Seconds()
	p.stepsPerOp = jobSteps
	p.workUnits = float64(n) * jobN * jobSteps
	for i, err := range errs {
		p.check(err == nil, "op %d: %v", i, err)
	}
	p.layers["client.requests_per_op"] = float64(env.requests.Load()) / float64(n)
	p.layers["server.cache_hit_ratio"] = float64(env.hits.Load()) / float64(n)
	p.exact = []string{"client.requests_per_op", "server.cache_hit_ratio"}
}

// coldPass is serve-cold: every set-up opens an empty store, starts a
// server and computes the warm-up jobs; the timed window computes coldJobs
// more, all distinct.
func coldPass(c runCtx) (*pass, error) {
	p := &pass{layers: map[string]float64{}}
	warm := jobBodies(c.seed, -c.sz.coldWarmup, c.sz.coldWarmup)
	bodies := jobBodies(c.seed, 0, c.sz.coldJobs)

	var env *serveEnv
	for k := 0; k < c.setups; k++ {
		if env != nil {
			env.stop()
		}
		dir, err := os.MkdirTemp(c.tmpDir, "cold-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if env, err = startServe(dir); err != nil {
			return nil, err
		}
		_, _, errs := closedLoop(env, nil, len(warm), func(cl *client, i int) error {
			_, err := cl.computeJob(i, warm[i])
			return err
		})
		if err := firstError(errs); err != nil {
			env.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
	}
	defer env.stop()

	views := make([]server.JobView, len(bodies))
	serveWindow(p, env, c.rec, len(bodies), func(cl *client, i int) error {
		var err error
		views[i], err = cl.computeJob(i, bodies[i])
		return err
	})
	// The digest covers what each job computed, in spec order; job IDs depend
	// on which client got there first and stay out.
	h := sha256.New()
	for _, v := range views {
		fmt.Fprintf(h, "%s %v %v %v\n", v.Hash, v.Progress.SimTime, v.Progress.DT, v.Verify)
	}
	p.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])

	if c.rec != nil {
		ids := make([]string, len(views))
		for i, v := range views {
			ids[i] = v.ID
		}
		if err := coldLayers(c, p, env, ids, bodies); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// populate computes the keys' jobs and records the CRCs of their metrics
// and snapshot bodies.
func populate(env *serveEnv, bodies [][]byte) ([]stored, error) {
	out := make([]stored, len(bodies))
	_, _, errs := closedLoop(env, nil, len(bodies), func(cl *client, i int) error {
		view, err := cl.computeJob(i, bodies[i])
		if err != nil {
			return err
		}
		out[i].body = bodies[i]
		for _, r := range []struct {
			path string
			crc  *uint64
		}{{"/metrics", &out[i].metricsCRC}, {"/snapshot", &out[i].snapshotCRC}} {
			b, err := cl.get("", -1, i, "/v1/jobs/"+view.ID+r.path)
			if err != nil {
				return err
			}
			*r.crc = crc64.Checksum(b, crcTable)
		}
		return nil
	})
	return out, firstError(errs)
}

// warmPass is serve-warm: every set-up populates a store with warmKeys
// computed jobs, restarts the server over the same directory and runs the
// warm-up ops; the timed window resubmits and reads the stored jobs in a
// key order drawn from the seed.
func warmPass(c runCtx) (*pass, error) {
	p := &pass{layers: map[string]float64{}}
	bodies := jobBodies(c.seed, 0, c.sz.warmKeys)
	rng := rand.New(rand.NewSource(c.seed))
	order := make([]int, c.sz.warmWarmup+c.sz.warmOps)
	for i := range order {
		order[i] = rng.Intn(len(bodies))
	}

	var env *serveEnv
	var keys []stored
	for k := 0; k < c.setups; k++ {
		if env != nil {
			env.stop()
		}
		dir, err := os.MkdirTemp(c.tmpDir, "warm-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if env, err = startServe(dir); err != nil {
			return nil, err
		}
		keys, err = populate(env, bodies)
		env.stop()
		if err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
		if env, err = startServe(dir); err != nil { // the restart
			return nil, err
		}
		_, _, errs := closedLoop(env, nil, c.sz.warmWarmup, func(cl *client, i int) error {
			return cl.readJob(i, keys[order[i]])
		})
		if err := firstError(errs); err != nil {
			env.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
	}
	defer env.stop()

	before, err := storeStats(env)
	if err != nil {
		return nil, err
	}
	timed := order[c.sz.warmWarmup:]
	serveWindow(p, env, c.rec, len(timed), func(cl *client, i int) error {
		return cl.readJob(i, keys[timed[i]])
	})
	after, err := storeStats(env)
	if err != nil {
		return nil, err
	}
	p.check(after.Puts == before.Puts, "the store's puts counter moved from %d to %d during the timed window", before.Puts, after.Puts)
	// The digest covers the snapshots only: a report carries the wall-clock
	// spans of the run that computed it and differs from run to run.
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%016x\n", k.snapshotCRC)
	}
	p.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])

	if c.rec != nil {
		if err := warmLayers(c, p, env, after, bodies); err != nil {
			return nil, err
		}
	}
	return p, nil
}

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// aggregateGate holds a kind's first collector inside aggregate — after
// every member has finished, before it reads any member's report (with
// after set: once aggregate has returned, before the result is persisted) —
// so a test can look at a record that is deterministically still running.
type aggregateGate struct {
	entered, release chan struct{}
	after            bool
	once             sync.Once
}

func newAggregateGate() *aggregateGate {
	return &aggregateGate{entered: make(chan struct{}), release: make(chan struct{})}
}

func gateAggregate[S any, V resourceView](d *Derived[S, V], g *aggregateGate) {
	orig := d.kind.aggregate
	hold := func() { g.once.Do(func() { close(g.entered); <-g.release }) }
	d.kind.aggregate = func(s *Server, rec *derived[S]) (any, error) {
		if !g.after {
			hold()
		}
		result, err := orig(s, rec)
		if g.after {
			hold()
		}
		return result, err
	}
}

func panicAggregate[S any, V resourceView](d *Derived[S, V]) {
	d.kind.aggregate = func(*Server, *derived[S]) (any, error) { panic("aggregate blew up") }
}

// lifecycleKind is one row of the contract table: what a client sends and
// expects back, and how the test reaches the kind's aggregate hook.
type lifecycleKind struct {
	name, route, unknownCode, body string
	gate                           func(*Server, *aggregateGate)
	boom                           func(*Server)
}

var lifecycleKinds = []lifecycleKind{
	{
		name: "experiment", route: "/v1/experiments", unknownCode: CodeUnknownExperiment,
		body: `{"base":{"scenario":"sedov","params":{"n":216,"nNeighbors":20,"extra":{"energy":1}},"steps":2,"cores":4},"ns":[150,300]}`,
		gate: func(s *Server, g *aggregateGate) { gateAggregate(&s.Experiments, g) },
		boom: func(s *Server) { panicAggregate(&s.Experiments) },
	},
	{
		name: "scaling", route: "/v1/scaling", unknownCode: CodeUnknownScaling,
		body: `{"base":{"scenario":"sedov","params":{"n":216,"nNeighbors":20,"extra":{"energy":1}},"steps":2,"cores":4},"cores":[12,24]}`,
		gate: func(s *Server, g *aggregateGate) { gateAggregate(&s.Scaling, g) },
		boom: func(s *Server) { panicAggregate(&s.Scaling) },
	},
	{
		name: "analysis", route: "/v1/analytics/cluster", unknownCode: CodeUnknownAnalysis,
		body: `{"scenario":"synthetic","features":["conservation"],"kLadder":[1,2]}`,
		gate: func(s *Server, g *aggregateGate) { gateAggregate(&s.Analyses, g) },
		boom: func(s *Server) { panicAggregate(&s.Analyses) },
	},
}

// lifecycleStore opens the store under dir, seeding it on first use with a
// small fabricated verification corpus under the "synthetic" scenario — the
// analysis rows cluster exactly that, whatever the sweep rows persist.
func lifecycleStore(t *testing.T, dir string, clock *testClock) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Entries > 0 {
		return st
	}
	for i := 0; i < 12; i++ {
		h := fmt.Sprintf("%064x", i+1)
		rep := fmt.Sprintf(`{"scenario":"synthetic","pass":true,"conservation":{"mass":%g,"energy":%g}}`,
			1e-9*float64(i%5), 1e-6*float64(i%7))
		if err := st.Put(store.Meta{Hash: h}, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := st.PutReport(h, []byte(rep)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// wire is the part of every view the contract reads.
type wire struct {
	ID       string          `json:"id"`
	State    JobState        `json:"state"`
	CacheHit bool            `json:"cacheHit"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// lifecycleClient drives one server through Handler() without keep-alive
// connections, so no client-side goroutine outlives its request.
type lifecycleClient struct {
	t    *testing.T
	ts   *httptest.Server
	http *http.Client
}

func newLifecycleClient(t *testing.T, s *Server) *lifecycleClient {
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &lifecycleClient{t: t, ts: ts,
		http: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}}
}

func (c *lifecycleClient) do(method, path, body string) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.ts.URL+path, strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, b
}

// view issues a request that must answer status with a resource view.
func (c *lifecycleClient) view(method, path, body string, status int) wire {
	c.t.Helper()
	got, b := c.do(method, path, body)
	if got != status {
		c.t.Fatalf("%s %s: status %d, want %d: %s", method, path, got, status, b)
	}
	var v wire
	if err := json.Unmarshal(b, &v); err != nil {
		c.t.Fatalf("%s %s: %v: %s", method, path, err, b)
	}
	return v
}

// fails issues a request that must answer status with the error envelope
// carrying code.
func (c *lifecycleClient) fails(method, path string, status int, code string) {
	c.t.Helper()
	got, b := c.do(method, path, "")
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.Unmarshal(b, &env); err != nil || got != status || env.Error.Code != code {
		c.t.Fatalf("%s %s: status %d body %s, want %d/%s", method, path, got, b, status, code)
	}
}

// stream follows an SSE stream to its end and returns the decoded frames;
// it reports failure as an error so it can run beside the test goroutine.
func (c *lifecycleClient) stream(path string) ([]wire, error) {
	resp, err := c.http.Get(c.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	var frames []wire
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var v wire
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			return nil, fmt.Errorf("frame %q: %v", line, err)
		}
		frames = append(frames, v)
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("GET %s: no frames (%v)", path, sc.Err())
	}
	return frames, sc.Err()
}

// terminalFrame follows a stream to its end, checks that every frame but
// the last is still running, and returns the last.
func (c *lifecycleClient) terminalFrame(frames []wire, err error) wire {
	c.t.Helper()
	if err != nil {
		c.t.Fatal(err)
	}
	for _, f := range frames[:len(frames)-1] {
		if f.State != StateRunning {
			c.t.Fatalf("frame before the terminal one is %s", f.State)
		}
	}
	return frames[len(frames)-1]
}

var goroutinesRe = regexp.MustCompile(`(?m)^go_goroutines (\d+)$`)

// goroutines scrapes go_goroutines off /metricsz.
func (c *lifecycleClient) goroutines() int {
	c.t.Helper()
	_, b := c.do("GET", "/metricsz", "")
	m := goroutinesRe.FindSubmatch(b)
	if m == nil {
		c.t.Fatalf("/metricsz has no go_goroutines:\n%s", b)
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

// lockedBuffer is a log sink the server's goroutines and the test share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestDerivedLifecycleContract runs the one derived-resource lifecycle over
// every kind through Handler(): 202 → the event stream ends on the terminal
// frame → DELETE is 409 while running → an identical resubmission is 200 +
// cacheHit with byte-identical result → a new Server over the same store
// serves the same bytes → DELETE is 204 once terminal and 404 with the
// kind's own code afterwards → a JobTTL prune drops the record but the next
// submission is still a store hit → a result that cannot be persisted is
// logged and served from memory → an aggregate that panics fails its one
// record with the process still serving and no goroutine left behind.
func TestDerivedLifecycleContract(t *testing.T) {
	for _, k := range lifecycleKinds {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := newTestClock()
			s := New(Options{Workers: 2, Store: lifecycleStore(t, dir, clock),
				JobTTL: time.Hour, Clock: clock.now})
			defer s.Close()
			gate := newAggregateGate()
			k.gate(s, gate)
			c := newLifecycleClient(t, s)

			first := c.view("POST", k.route, k.body, http.StatusAccepted)
			if first.State != StateRunning || first.CacheHit {
				t.Fatalf("accepted view %+v, want running and no cache hit", first)
			}
			path := k.route + "/" + first.ID
			type streamed struct {
				frames []wire
				err    error
			}
			stream := make(chan streamed, 1)
			go func() {
				frames, err := c.stream(path + "/events")
				stream <- streamed{frames, err}
			}()

			<-gate.entered
			c.fails("DELETE", path, http.StatusConflict, CodeConflict)
			close(gate.release)

			got := <-stream
			last := c.terminalFrame(got.frames, got.err)
			if last.State != StateCompleted || len(last.Result) == 0 {
				t.Fatalf("terminal frame %+v, want completed with a result", last)
			}

			hit := c.view("POST", k.route, k.body, http.StatusOK)
			if !hit.CacheHit || !bytes.Equal(hit.Result, last.Result) {
				t.Fatalf("resubmission: cacheHit=%v, result identical=%v", hit.CacheHit, bytes.Equal(hit.Result, last.Result))
			}

			if status, b := c.do("DELETE", path, ""); status != http.StatusNoContent {
				t.Fatalf("DELETE once terminal: status %d: %s", status, b)
			}
			c.fails("DELETE", path, http.StatusNotFound, k.unknownCode)
			c.fails("GET", path, http.StatusNotFound, k.unknownCode)
			c.fails("GET", path+"/events", http.StatusNotFound, k.unknownCode)

			// Past JobTTL the surviving (cache-hit) record is pruned; the
			// result is not.
			clock.advance(2 * time.Hour)
			if _, page := c.do("GET", k.route, ""); !bytes.Contains(page, []byte(":[]}")) {
				t.Fatalf("listing past JobTTL still holds records: %s", page)
			}
			c.fails("GET", k.route+"/"+hit.ID, http.StatusNotFound, k.unknownCode)
			if again := c.view("POST", k.route, k.body, http.StatusOK); !again.CacheHit {
				t.Fatal("stored result lost when its record was pruned")
			}

			// A restart: nothing but the store directory carries over.
			s.Close()
			s2 := New(Options{Workers: 1, Store: lifecycleStore(t, dir, clock)})
			defer s2.Close()
			revived := newLifecycleClient(t, s2).view("POST", k.route, k.body, http.StatusOK)
			if !revived.CacheHit || !bytes.Equal(revived.Result, last.Result) {
				t.Fatalf("after restart: cacheHit=%v, result identical=%v", revived.CacheHit, bytes.Equal(revived.Result, last.Result))
			}
		})

		t.Run(k.name+"/unpersistable", func(t *testing.T) {
			dir := t.TempDir()
			var logged lockedBuffer
			s := New(Options{Workers: 2, Store: lifecycleStore(t, dir, newTestClock()),
				Logger: slog.New(slog.NewTextHandler(&logged, nil))})
			defer s.Close()
			gate := newAggregateGate()
			gate.after = true
			k.gate(s, gate)
			c := newLifecycleClient(t, s)

			first := c.view("POST", k.route, k.body, http.StatusAccepted)
			<-gate.entered
			// The result is aggregated from the members' stored reports; now
			// the store loses its pack directory to a plain file, so the
			// result's Put fails.
			packs := filepath.Join(dir, "packs")
			if err := os.RemoveAll(packs); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(packs, []byte("not a directory"), 0o644); err != nil {
				t.Fatal(err)
			}
			close(gate.release)

			last := c.terminalFrame(c.stream(k.route + "/" + first.ID + "/events"))
			if last.State != StateCompleted || len(last.Result) == 0 {
				t.Fatalf("unpersistable result ended %+v, want completed from memory", last)
			}
			line := ""
			for _, l := range strings.Split(logged.String(), "\n") {
				if strings.Contains(l, "derived result not persisted") {
					line = l
				}
			}
			for _, want := range []string{"level=WARN", "kind=", "id=" + first.ID, "hash=", "error="} {
				if !strings.Contains(line, want) {
					t.Fatalf("persist-failure log line %q lacks %q; log:\n%s", line, want, logged.String())
				}
			}
		})

		t.Run(k.name+"/aggregate-panics", func(t *testing.T) {
			s := New(Options{Workers: 2, Store: lifecycleStore(t, t.TempDir(), newTestClock())})
			defer s.Close()
			k.boom(s)
			c := newLifecycleClient(t, s)
			baseline := c.goroutines()

			first := c.view("POST", k.route, k.body, http.StatusAccepted)
			last := c.terminalFrame(c.stream(k.route + "/" + first.ID + "/events"))
			if last.State != StateFailed || !strings.Contains(last.Error, "collector panic: aggregate blew up") {
				t.Fatalf("panicking aggregate ended %+v, want failed with the panic", last)
			}
			if status, _ := c.do("GET", "/v1/healthz", ""); status != http.StatusOK {
				t.Fatalf("process not serving after the panic: healthz %d", status)
			}
			deadline := time.Now().Add(10 * time.Second)
			for n := c.goroutines(); n > baseline; n = c.goroutines() {
				if time.Now().After(deadline) {
					t.Fatalf("go_goroutines %d, baseline %d: something leaked", n, baseline)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

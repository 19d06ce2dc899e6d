package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// orderedKeys returns the top-level keys of a JSON object in document
// order, so the golden sets below pin key order as well as key presence.
func orderedKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v): %s", err, raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// member returns the raw value of one top-level key.
func member(t *testing.T, raw []byte, key string) json.RawMessage {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("%v: %s", err, raw)
	}
	v, ok := obj[key]
	if !ok {
		t.Fatalf("no %q in %s", key, raw)
	}
	return v
}

func wantKeys(t *testing.T, what string, raw []byte, want string) {
	t.Helper()
	if got := strings.Join(orderedKeys(t, raw), " "); got != want {
		t.Errorf("%s keys:\n got  %s\n want %s", what, got, want)
	}
}

// wireKind is one resource kind as a client sees it: where it lives, what a
// submission looks like, and the golden key sets of its wire shapes.
type wireKind struct {
	name, route, listKey, unknownCode, unknownID string
	// body is a submission that stays running long enough to observe a 409.
	body string
	// running, completed and cacheHit are the view's keys in each state;
	// memberKeys the keys of one completed view's members[] element.
	running, completed, cacheHit, memberKeys string
}

const slowSedov = `{"scenario":"sedov","params":{"n":216,"nNeighbors":20,"extra":{"energy":1}},"steps":%d,"cores":4}`

var wireKinds = []wireKind{
	{
		name: "job", route: "/v1/jobs", listKey: "jobs",
		unknownCode: "unknown_job", unknownID: "job-999999",
		body:      fmt.Sprintf(slowSedov, 200),
		running:   "id spec hash state progress cacheHit restarts",
		completed: "id spec hash state progress cacheHit restarts verify telemetry",
		cacheHit:  "id spec hash state progress cacheHit restarts verify telemetry",
	},
	{
		name: "experiment", route: "/v1/experiments", listKey: "experiments",
		unknownCode: "unknown_experiment", unknownID: "exp-999999",
		body:       `{"base":` + fmt.Sprintf(slowSedov, 3) + `,"ns":[4000,8000]}`,
		running:    "id sweep hash state cacheHit members",
		completed:  "id sweep hash state cacheHit members result",
		cacheHit:   "id sweep hash state cacheHit result",
		memberKeys: "n jobId hash state verify",
	},
	{
		name: "scaling", route: "/v1/scaling", listKey: "scaling",
		unknownCode: "unknown_scaling", unknownID: "scl-999999",
		body:       `{"base":` + fmt.Sprintf(slowSedov, 120) + `,"cores":[12,24]}`,
		running:    "id sweep hash state cacheHit members",
		completed:  "id sweep hash state cacheHit members result",
		cacheHit:   "id sweep hash state cacheHit result",
		memberKeys: "arm cores n jobId hash state verify",
	},
	{
		name: "analysis", route: "/v1/analytics/cluster", listKey: "analyses",
		unknownCode: "unknown_analysis", unknownID: "cls-999999",
		body:      `{"scenario":"synthetic","features":["conservation"],"kLadder":[1,2,3,4,5,6,7,8]}`,
		running:   "id spec hash state cacheHit jobs",
		completed: "id spec hash state cacheHit jobs result",
		cacheHit:  "id spec hash state cacheHit jobs result",
	},
}

// seedSyntheticCorpus persists enough fabricated verification reports that
// a full-ladder cluster analysis over them runs for a few hundred
// milliseconds — the only way to observe an analysis in the running state
// from outside the process.
func seedSyntheticCorpus(t *testing.T, st *store.Store) {
	t.Helper()
	for i := 0; i < 300; i++ {
		h := fmt.Sprintf("%064x", i+1)
		rep := fmt.Sprintf(`{"scenario":"synthetic","pass":true,"conservation":`+
			`{"mass":%g,"momentum":%g,"angMom":%g,"energy":%g}}`,
			1e-9*float64(i%17), 1e-8*float64(i%13), 1e-7*float64(i%11), 1e-6*float64(i%7))
		if err := st.Put(store.Meta{Hash: h}, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := st.PutReport(h, []byte(rep)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireShapeGolden pins what a client can see of every resource kind —
// status codes, the ordered JSON keys of the view in each lifecycle state,
// the page envelope, and the 404/409 error envelopes — using nothing but
// Handler(), so it reads the same before and after any change behind it.
func TestWireShapeGolden(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedSyntheticCorpus(t, st)
	s := server.New(server.Options{Workers: 2, Store: st})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do := func(method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	wantError := func(what string, status int, body []byte, wantStatus int, wantCode string) {
		t.Helper()
		if status != wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", what, status, wantStatus, body)
			return
		}
		wantKeys(t, what+" envelope", body, "error")
		e := member(t, body, "error")
		wantKeys(t, what+" error", e, "code message")
		var code string
		if err := json.Unmarshal(member(t, e, "code"), &code); err != nil || code != wantCode {
			t.Errorf("%s: code %q, want %q", what, code, wantCode)
		}
	}

	for _, k := range wireKinds {
		t.Run(k.name, func(t *testing.T) {
			status, view := do("POST", k.route, k.body)
			if status != http.StatusAccepted {
				t.Fatalf("first submission: status %d: %s", status, view)
			}
			wantKeys(t, "running view", view, k.running)
			var id string
			if err := json.Unmarshal(member(t, view, "id"), &id); err != nil {
				t.Fatal(err)
			}

			status, body := do("DELETE", k.route+"/"+id, "")
			wantError("DELETE while running", status, body, http.StatusConflict, "conflict")

			deadline := time.Now().Add(120 * time.Second)
			for {
				status, view = do("GET", k.route+"/"+id, "")
				if status != http.StatusOK {
					t.Fatalf("GET %s: status %d: %s", id, status, view)
				}
				var state string
				if err := json.Unmarshal(member(t, view, "state"), &state); err != nil {
					t.Fatal(err)
				}
				if state == "completed" {
					break
				}
				if state == "failed" || state == "cancelled" || time.Now().After(deadline) {
					t.Fatalf("%s is %s: %s", id, state, view)
				}
				time.Sleep(10 * time.Millisecond)
			}
			wantKeys(t, "completed view", view, k.completed)
			if k.memberKeys != "" {
				var members []json.RawMessage
				if err := json.Unmarshal(member(t, view, "members"), &members); err != nil || len(members) == 0 {
					t.Fatalf("members: %v: %s", err, view)
				}
				wantKeys(t, "member", members[0], k.memberKeys)
			}

			status, hit := do("POST", k.route, k.body)
			if status != http.StatusOK {
				t.Fatalf("resubmission: status %d: %s", status, hit)
			}
			wantKeys(t, "cache-hit view", hit, k.cacheHit)

			// Two records now: a one-item page carries the cursor, the page
			// after it does not.
			status, page := do("GET", k.route+"?limit=1", "")
			if status != http.StatusOK {
				t.Fatalf("list: status %d: %s", status, page)
			}
			wantKeys(t, "first page", page, k.listKey+" nextCursor")
			var items []json.RawMessage
			if err := json.Unmarshal(member(t, page, k.listKey), &items); err != nil || len(items) != 1 {
				t.Fatalf("first page items: %v: %s", err, page)
			}
			wantKeys(t, "listed view", items[0], k.completed)
			var cursor string
			if err := json.Unmarshal(member(t, page, "nextCursor"), &cursor); err != nil {
				t.Fatal(err)
			}
			_, page = do("GET", k.route+"?limit=1&cursor="+cursor, "")
			wantKeys(t, "last page", page, k.listKey)
			_, page = do("GET", k.route+"?cursor="+k.unknownID, "")
			if got := string(bytes.TrimSpace(page)); got != `{"`+k.listKey+`":[]}` {
				t.Errorf("empty page: %s", got)
			}

			if status, _ = do("DELETE", k.route+"/"+id, ""); status != http.StatusNoContent {
				t.Errorf("DELETE once terminal: status %d", status)
			}
			for _, req := range [][2]string{
				{"GET", k.route + "/" + id},
				{"DELETE", k.route + "/" + id},
				{"GET", k.route + "/" + k.unknownID},
				{"GET", k.route + "/" + k.unknownID + "/events"},
				{"DELETE", k.route + "/" + k.unknownID},
			} {
				status, body = do(req[0], req[1], "")
				wantError(req[0]+" "+req[1], status, body, http.StatusNotFound, k.unknownCode)
			}
		})
	}
}

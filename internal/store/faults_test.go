package store_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/store"
)

// The store's fault rows as a serving process meets them: a record write
// that fails part way through, under a live server.

// sedov is a small job; steps makes its hash.
func sedov(steps int) scenario.JobSpec {
	return scenario.JobSpec{Spec: scenario.Spec{
		Scenario: "sedov",
		Params:   scenario.Params{N: 216, NNeighbors: 20, Extra: map[string]float64{"energy": 1}},
		Steps:    steps,
		Cores:    4,
	}}
}

// complete submits spec and waits for the job to complete.
func complete(t *testing.T, s *server.Server, spec scenario.JobSpec) server.JobView {
	t.Helper()
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		v, ok := s.Get(view.ID)
		switch {
		case !ok || v.State == server.StateFailed || v.State == server.StateCancelled:
			t.Fatalf("job %s: %+v", view.ID, v)
		case v.State == server.StateCompleted:
			return v
		case time.Now().After(deadline):
			t.Fatalf("job %s stuck in %s", view.ID, v.State)
		}
	}
}

// persistFailures reads job_persist_failures_total{artifact}.
func persistFailures(s *server.Server, artifact string) float64 {
	for _, f := range s.Registry().Snapshot() {
		for _, sr := range f.Series {
			if f.Name == "job_persist_failures_total" && len(sr.Labels) == 1 && sr.Labels[0] == artifact {
				return sr.Value
			}
		}
	}
	return 0
}

// TestShortRecordWriteIsSeen: a record write cut short (the write seam
// writes half of the snapshot, then fails) fails the write; the job
// completes with one tick of job_persist_failures_total{record} and none of
// {index}, and its snapshot answers 410 gone, as an evicted one does. After
// a restart the store serves nothing of that job, and every entry stored
// before it reads back byte for byte.
func TestShortRecordWriteIsSeen(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Options{Workers: 1, Store: st})
	before := complete(t, s, sedov(1))
	var want [3][]byte
	want[0], _, err = st.ReadObject(before.Hash)
	want[1], _ = st.ReadReport(before.Hash)
	want[2], _ = st.ReadTelemetry(before.Hash)
	if err != nil || want[1] == nil || want[2] == nil {
		t.Fatalf("the first job's record: %v", err)
	}

	orig := *store.WriteAt
	*store.WriteAt = func(f *os.File, b []byte, off int64) (int, error) {
		n, _ := f.WriteAt(b[:len(b)/2], off)
		return n, io.ErrShortWrite
	}
	short := complete(t, s, sedov(2))
	*store.WriteAt = orig
	ts := httptest.NewServer(s.Handler())
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + short.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Error server.APIError }
	_ = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != http.StatusGone || body.Error.Code != server.CodeGone {
		t.Errorf("the job whose record was cut short: snapshot %d %q, want 410 %q", resp.StatusCode, body.Error.Code, server.CodeGone)
	}
	if n := persistFailures(s, "record"); n != 1 {
		t.Errorf("job_persist_failures_total{record} = %v, want 1", n)
	}
	if n := persistFailures(s, "index"); n != 0 {
		t.Errorf("job_persist_failures_total{index} = %v, want 0", n)
	}
	s.Close()

	again, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := again.Get(short.Hash); ok || again.Stats().Entries != 1 {
		t.Errorf("after a restart: %+v; want the cut record not served", again.Stats())
	}
	var got [3][]byte
	got[0], _, err = again.ReadObject(before.Hash)
	got[1], _ = again.ReadReport(before.Hash)
	got[2], _ = again.ReadTelemetry(before.Hash)
	for k := range got {
		if err != nil || !bytes.Equal(got[k], want[k]) {
			t.Errorf("region %d of the earlier entry after a restart: %v, bytes equal %v", k, err, bytes.Equal(got[k], want[k]))
		}
	}
}

package client_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/pkg/client"
)

// coldSpec is the benchmark's serve-cold job (sedov, N = 216, 2 steps, 4
// cores); distinct energies give distinct hashes, so every job computes.
func coldSpec(energy float64) scenario.JobSpec {
	return scenario.JobSpec{Spec: scenario.Spec{
		Scenario: "sedov",
		Params: scenario.Params{
			N: 216, NNeighbors: 20,
			Extra: map[string]float64{"energy": energy},
		},
		Steps: 2,
		Cores: 4,
	}}
}

// median returns the middle of ms (the upper one of an even count).
func median(ms []float64) float64 {
	s := slices.Clone(ms)
	slices.Sort(s)
	return s[len(s)/2]
}

// TestWaitFollowsTheStream: a client that submits a cold job and waits for
// it through the HTTP API pays about what the server takes, not a polling
// interval. 50 sequential cold jobs through Submit + WaitJob, interleaved
// with 50 through the in-process Submit + Done, must keep the client's
// median within 2× the in-process one. A 50 ms poll reads ~14×.
func TestWaitFollowsTheStream(t *testing.T) {
	const jobs, warmup = 50, 3
	s, c := newServer(t) // the product's client defaults
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	viaClient := func(energy float64) float64 {
		start := time.Now()
		job, err := c.Submit(ctx, coldSpec(energy))
		if err != nil {
			t.Fatal(err)
		}
		if job, err = c.WaitJob(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
		if job.State != client.StateCompleted || job.CacheHit {
			t.Fatalf("client job ended %s (cacheHit %v): %s", job.State, job.CacheHit, job.Error)
		}
		return float64(time.Since(start).Microseconds()) / 1e3
	}
	inProcess := func(energy float64) float64 {
		start := time.Now()
		view, err := s.Submit(coldSpec(energy))
		if err != nil {
			t.Fatal(err)
		}
		done, ok := s.Done(view.ID)
		if !ok {
			t.Fatalf("no job %s", view.ID)
		}
		<-done
		elapsed := float64(time.Since(start).Microseconds()) / 1e3
		if v, _ := s.Get(view.ID); v.State != server.StateCompleted || v.CacheHit {
			t.Fatalf("in-process job ended %s (cacheHit %v): %s", v.State, v.CacheHit, v.Error)
		}
		return elapsed
	}

	var clientMS, directMS []float64
	for i := range jobs + warmup {
		a, b := viaClient(1+float64(i)*1e-6), inProcess(2+float64(i)*1e-6)
		if i >= warmup {
			clientMS, directMS = append(clientMS, a), append(directMS, b)
		}
	}
	cp50, dp50 := median(clientMS), median(directMS)
	t.Logf("p50 over %d cold jobs: client %.2f ms, in-process %.2f ms (%.2f×)", jobs, cp50, dp50, cp50/dp50)
	if cp50 > 2*dp50 {
		t.Fatalf("client p50 %.2f ms is over 2× the in-process p50 %.2f ms", cp50, dp50)
	}
}

// TestNeverReadingEventsClient: an SSE client that opens a job's /events
// stream and never reads holds no worker: on a one-worker server, two more
// jobs still complete through WaitJob. Once that connection closes, the
// process is back to its baseline goroutine count.
func TestNeverReadingEventsClient(t *testing.T) {
	_, ts := startServer(t, 1)
	tr := &http.Transport{}
	c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tr}))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	baseline := runtime.NumGoroutine()

	watched := coldSpec(3)
	watched.Steps = 40 // a frame per step while the reader sits idle
	job, err := c.Submit(ctx, watched)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(raw, "GET /v1/jobs/%s/events HTTP/1.1\r\nHost: sphexa\r\n\r\n", job.ID); err != nil {
		t.Fatal(err)
	}

	for i := range 2 {
		j, err := c.Submit(ctx, coldSpec(4+float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if j, err = c.WaitJob(ctx, j.ID); err != nil || j.State != client.StateCompleted {
			t.Fatalf("job %d behind the never-read stream: %v (%+v)", i, err, j)
		}
	}

	raw.Close()
	tr.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 10 s after the reader closed, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Command sphexa-serve exposes the mini-app as a simulation service: a
// versioned /v1 HTTP API over the scenario registry and both execution
// engines. Jobs are submitted as typed JobSpecs (scenario spec + execution
// section choosing the serial or distributed backend, machine model, and
// parent-code cost calibration — all covered by the spec hash; an empty
// section is the same fixed default on every server), executed on a
// bounded worker pool, resumable after a kill, cached by spec
// hash, and their final particle snapshots served in the part binary
// checkpoint format. Completed jobs are scored against their scenario's
// analytic reference (GET /v1/jobs/{id}/metrics), and POST /v1/experiments
// runs whole N-convergence sweeps server-side, persisting the norm-vs-N
// regression like any result. Completed results and their verification
// reports persist in a content-addressed disk store (internal/store) under
// -store-dir, bounded by -store-ttl and -store-max-bytes, so identical
// resubmissions hit disk even across restarts; an empty -store-dir is a
// temporary directory removed at exit. A result is one append to the active
// pack, <store-dir>/packs/<n>.pack, beside index.json and its journal
// index.log; no result creates a file of its own. -store-max-bytes caps the
// live record bytes; the dead bytes evictions leave in the packs are
// compacted away by every sweep and every start, after which the packs hold
// at most twice the live bytes plus one 4 MiB pack. A record write that fails
// (a full disk, a short write, packs/ not a directory) stores nothing: the
// job completes, counted in job_persist_failures_total, and its result is
// gone as if evicted (410, and a resubmission recomputes); a corrupt record
// is quarantined, never served; a torn tail left by a killed process is
// dead bytes. The README's fault matrix lists each store row. A
// background goroutine sweeps the TTL/LRU eviction policy every
// -store-sweep so idle entries expire without traffic, terminal jobs leave
// the job table on the same TTL, and GET /v1/store reports store metrics.
// The pre-/v1 unversioned alias routes are removed — requests to them 404.
//
// Observability: every request carries an X-Request-Id (generated when the
// client sends none) and a Server-Timing header; GET /statusz serves a
// human-readable snapshot (uptime, queue, workers, per-route latency
// digest, job phase totals, watchdog trips) and GET /metricsz the
// Prometheus text exposition. Every executing job feeds an in-run flight
// recorder (conservation drift, dt, smoothing-length and neighbor extrema,
// rank imbalance, per-phase timings) served by GET /v1/jobs/{id}/telemetry
// and streamed live over GET /v1/jobs/{id}/telemetry/events; physics
// watchdogs (NaN, drift slope, dt collapse, imbalance; fixed thresholds)
// mark the job and count trips in telemetry_watchdog_trips_total. GET
// /v1/jobs/{id}/trace exports a completed job's measured timeline —
// reassembled deterministically from its persisted timing record, span
// trace, and telemetry track — as Perfetto-loadable Chrome trace-event
// JSON or an ASCII Paraver rendering, with POP efficiency metrics computed
// from the real intervals beside the modeled prediction. A background
// sampler (-history-interval) feeds an in-process metrics-history ring
// served by GET /v1/metrics/history and the /statusz trend columns.
// Structured request/lifecycle logs go to stderr (-log-level), and
// -pprof-addr exposes net/http/pprof on a separate listener, the one way to
// profile the process (go tool pprof http://<pprof-addr>/debug/pprof/profile).
//
// Jobs run in chunks of runloop.DefaultChunkSteps steps, like every sphexa
// CLI run, so a local run and the same spec served on the serial backend
// are the same run. A killed job holds the state its run stopped at in
// memory and resumes from it; the server writes no checkpoint file, and
// every other run of a spec starts from step 0. -inject-nan is for the
// contract smoke only: it installs server.NaNFault, which poisons the one
// serial sedov run the smoke's analytics leg expects to be flagged.
//
//	sphexa-serve -addr :8080 -workers 4 \
//	    -store-dir /var/lib/sphexa/results -store-ttl 168h -store-max-bytes 1073741824
//
// See the README for a curl walkthrough of the API.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux; exposed only via -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 2, "concurrent simulation workers")
		storeDir = flag.String("store-dir", "", "result store directory (empty: a temporary store, removed at exit)")
		storeTTL = flag.Duration("store-ttl", 7*24*time.Hour,
			"evict stored results idle longer than this; terminal jobs leave the job table on the same clock (0 disables)")
		storeMax = flag.Int64("store-max-bytes", 0, "cap on live record bytes (snapshots plus their report and telemetry regions), LRU-evicted (0 = unbounded)")
		sweep    = flag.Duration("store-sweep", time.Minute,
			"interval between background TTL/LRU eviction sweeps of the result store (0 leaves eviction to submissions/reads)")
		pprofAddr = flag.String("pprof-addr", "",
			"serve net/http/pprof on this address (empty disables; keep it off the public listener)")
		logLevel  = flag.String("log-level", "info", "minimum structured log level: debug, info, warn, error")
		histEvery = flag.Duration("history-interval", 0,
			"metrics-history sampling interval for GET /v1/metrics/history and the /statusz trend columns (0 = default 5s, negative disables the sampler)")

		injectNaN = flag.Bool("inject-nan", false, fmt.Sprintf(
			"TESTING ONLY: poison serial runs of %d particles with a NaN internal energy after step %d (server.NaNFault, the contract smoke's known anomaly)",
			server.NaNFaultN, server.NaNFaultStep))
	)
	flag.Parse()
	if err := run(*addr, *workers, *storeDir, *storeTTL, *storeMax, *sweep,
		*pprofAddr, *logLevel, *histEvery, *injectNaN); err != nil {
		fmt.Fprintln(os.Stderr, "sphexa-serve:", err)
		os.Exit(1)
	}
}

func run(addr string, workers int, storeDir string, storeTTL time.Duration,
	storeMax int64, sweep time.Duration,
	pprofAddr, logLevel string, histEvery time.Duration, injectNaN bool) error {
	var level slog.Level
	if err := level.UnmarshalText([]byte(logLevel)); err != nil {
		return fmt.Errorf("parsing -log-level: %w", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if storeDir == "" {
		dir, err := os.MkdirTemp("", "sphexa-store-")
		if err != nil {
			return fmt.Errorf("creating a temporary result store: %w", err)
		}
		defer os.RemoveAll(dir) // deferred first, so it runs after the server has closed
		storeDir = dir
	}
	st, err := store.Open(storeDir, store.Options{TTL: storeTTL, MaxBytes: storeMax})
	if err != nil {
		return fmt.Errorf("opening result store: %w", err)
	}
	ss := st.Stats()
	fmt.Printf("sphexa-serve: result store %s (%d entries, %d bytes, %d quarantined)\n",
		storeDir, ss.Entries, ss.Bytes, ss.Quarantined)
	if sweep > 0 {
		// Background eviction sweep: without it, TTL/LRU evictions only
		// run on submissions and reads, so an idle server never expires
		// stale entries (and never frees their disk).
		stopSweep := make(chan struct{})
		defer close(stopSweep)
		go func() {
			ticker := time.NewTicker(sweep)
			defer ticker.Stop()
			for {
				select {
				case <-stopSweep:
					return
				case <-ticker.C:
					st.Sweep()
				}
			}
		}()
	}
	opts := server.Options{
		Workers:         workers,
		Store:           st,
		JobTTL:          storeTTL,
		Logger:          logger,
		HistoryInterval: histEvery,
	}
	if injectNaN {
		// A known anomaly for the fleet-analytics leg of the contract smoke.
		opts.FaultInjection = server.NaNFault
		logger.Warn("fault injection armed: NaN internal energy",
			"scenario", "sedov", "requestedN", server.NaNFaultN, "step", server.NaNFaultStep)
	}
	srv := server.New(opts)
	defer srv.Close()

	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	if pprofAddr != "" {
		// The pprof handlers live on their own listener (DefaultServeMux)
		// so profiling never rides the public API address.
		go func() {
			logger.Info("pprof listening", "addr", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				logger.Error("pprof server exited", "error", err)
			}
		}()
	}

	fmt.Printf("sphexa-serve: listening on %s (%d workers, scenarios: %v)\n",
		addr, workers, scenario.Names())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("sphexa-serve: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	}
}

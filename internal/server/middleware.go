package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// RequestIDHeader carries the request correlation ID: honored when the
// client sends one, generated otherwise, always echoed on the response.
const RequestIDHeader = "X-Request-Id"

// HashHeader is the response header handlers set to expose the canonical
// spec/sweep hash of the resource a request touched; the middleware folds
// it into the structured request line (and it reaches clients as a bonus).
const HashHeader = "X-Sphexa-Hash"

// statusRecorder wraps a ResponseWriter to capture the status code and
// inject the Server-Timing header at the last possible moment — the first
// WriteHeader call — when the request's processing time is known.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
	start  time.Time
	clock  func() time.Time
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.wrote {
		return
	}
	sr.wrote = true
	sr.status = code
	// Time-to-first-byte: for buffered JSON handlers this is the full
	// processing time; for SSE streams it is time-to-stream-start.
	elapsed := sr.clock().Sub(sr.start).Seconds()
	sr.Header().Add("Server-Timing", fmt.Sprintf("total;dur=%.1f", elapsed*1e3))
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if !sr.wrote {
		sr.WriteHeader(http.StatusOK)
	}
	return sr.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does — the SSE
// routes type-assert it and must keep streaming through the middleware.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeLabel derives the metric label from the matched ServeMux pattern
// ("GET /v1/jobs/{id}" → "/v1/jobs/{id}"), so every job ID does not mint
// its own metric series. Unmatched requests share one label.
func routeLabel(r *http.Request) string {
	pat := r.Pattern
	if pat == "" {
		return "unmatched"
	}
	if _, path, ok := strings.Cut(pat, " "); ok {
		return path
	}
	return pat
}

// instrument is the serving-layer telemetry middleware: request ID
// passthrough, in-flight gauge, per-route/method/code counters and latency
// histograms, Server-Timing, and one structured log line per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		reqID := r.Header.Get(RequestIDHeader)
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, reqID)

		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK, start: start, clock: s.now}
		s.met.httpInflight.Add(1)
		defer s.met.httpInflight.Add(-1) // also when a handler aborts with http.ErrAbortHandler
		next.ServeHTTP(sr, r)

		elapsed := s.now().Sub(start).Seconds()
		route := routeLabel(r)
		code := strconv.Itoa(sr.status)
		s.met.httpReqs.With(route, r.Method, code).Inc()
		s.met.httpLatency.With(route, r.Method, code).Observe(elapsed)
		s.met.routeLatency.With(route).Observe(elapsed)

		attrs := []any{
			"requestId", reqID,
			"method", r.Method,
			"route", route,
			"path", r.URL.Path,
			"code", sr.status,
			"durMs", elapsed * 1e3,
		}
		if hash := sr.Header().Get(HashHeader); hash != "" {
			attrs = append(attrs, "hash", hash)
		}
		s.log.Info("request", attrs...)
	})
}

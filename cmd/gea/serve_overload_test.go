package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gea"
)

// overloadSystem builds a session with explicit admission settings for
// the overload suites.
func overloadSystem(t *testing.T, opts gea.SystemOptions) *gea.System {
	t.Helper()
	res, err := gea.Generate(gea.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	opts.User = "serve-test"
	sys, err := gea.NewSystem(res.Corpus, opts)
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	return sys
}

// goGet issues one request from a goroutine, delivering the recorder on
// the returned channel.
func goGet(mux *http.ServeMux, url string) <-chan *httptest.ResponseRecorder {
	ch := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
		ch <- rr
	}()
	return ch
}

// waitQueueDepth polls until the admission queue holds at least depth
// waiters, so tests can sequence arrivals deterministically.
func waitQueueDepth(t *testing.T, sys *gea.System, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sys.AdmissionStats().QueueDepth >= depth {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached depth %d: %+v", depth, sys.AdmissionStats())
}

// retryAfterValue parses and sanity-checks a Retry-After header.
func retryAfterValue(t *testing.T, rr *httptest.ResponseRecorder) int {
	t.Helper()
	h := rr.Header().Get("Retry-After")
	if h == "" {
		t.Fatalf("no Retry-After header on %d response: %v", rr.Code, rr.Header())
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive whole-second count", h)
	}
	return secs
}

// TestServe429RetryAfter pins the queue-timeout path: with the only
// slot stalled and a short admit timeout, the second request gets 429
// with Retry-After instead of hanging for the old 10s default.
func TestServe429RetryAfter(t *testing.T) {
	sys := overloadSystem(t, gea.SystemOptions{MaxConcurrent: 1, AdmitTimeout: 30 * time.Millisecond})
	gw, mux := newServeMux(sys, gea.NewObsCollector(), serveOptions{})
	release := make(chan struct{})
	gw.faults.StallAt(1, release)

	first := goGet(mux, "/mine?tissue=brain")
	<-gw.faults.Stalled() // request 1 now holds the only slot

	start := time.Now()
	rr := get(t, mux, "/mine?tissue=brain")
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("stalled-out request = %d, want 429: %s", rr.Code, rr.Body.String())
	}
	retryAfterValue(t, rr)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("429 took %v; the old 10s semaphore hang is back", elapsed)
	}

	close(release)
	if rr := <-first; rr.Code != http.StatusOK {
		t.Fatalf("stalled request after release = %d: %s", rr.Code, rr.Body.String())
	}
}

// TestServe503QueueFull pins the backpressure edge: with the slot held
// and the queue full, the next request is rejected immediately with 503
// and Retry-After, while everyone already queued still completes.
func TestServe503QueueFull(t *testing.T) {
	sys := overloadSystem(t, gea.SystemOptions{
		MaxConcurrent: 1, MaxQueue: 1, AdmitTimeout: 10 * time.Second,
	})
	gw, mux := newServeMux(sys, gea.NewObsCollector(), serveOptions{})
	release := make(chan struct{})
	gw.faults.StallAt(1, release)

	first := goGet(mux, "/mine?tissue=brain")
	<-gw.faults.Stalled()
	second := goGet(mux, "/mine?tissue=brain")
	waitQueueDepth(t, sys, 1)

	start := time.Now()
	rr := get(t, mux, "/mine?tissue=brain")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow request = %d, want 503: %s", rr.Code, rr.Body.String())
	}
	retryAfterValue(t, rr)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("overload rejection took %v, want immediate", elapsed)
	}

	close(release)
	for i, ch := range []<-chan *httptest.ResponseRecorder{first, second} {
		if rr := <-ch; rr.Code != http.StatusOK {
			t.Fatalf("queued request %d = %d: %s", i+1, rr.Code, rr.Body.String())
		}
	}
}

// TestServeDegradedPartial pins graceful degradation: a request
// admitted while the queue is degraded runs an otherwise-unlimited
// search under the DegradedBudget cap and returns a flagged partial
// instead of holding its slot to completion. MaxQueue 2 puts the
// degrade depth at 1 and the saturate depth at 2.
func TestServeDegradedPartial(t *testing.T) {
	sys := overloadSystem(t, gea.SystemOptions{
		MaxConcurrent: 1, MaxQueue: 2, AdmitTimeout: 10 * time.Second,
		DegradedBudget: 3, ResultCache: &gea.ResultCacheOptions{},
	})
	gw, mux := newServeMux(sys, gea.NewObsCollector(), serveOptions{})
	release := make(chan struct{})
	gw.faults.StallAt(1, release)

	first := goGet(mux, "/mine?tissue=brain")
	<-gw.faults.Stalled()
	second := goGet(mux, "/mine?tissue=brain") // queues; tips state to degraded
	waitQueueDepth(t, sys, 1)
	if st := sys.AdmissionState(); st != gea.AdmissionDegraded {
		t.Fatalf("state at depth 1 = %v, want degraded", st)
	}
	// A fresh tissue, so the governed search does real mining instead
	// of hitting the result cache.
	third := goGet(mux, "/mine?tissue=breast") // admitted degraded: budget capped at 3
	waitQueueDepth(t, sys, 2)
	close(release)

	if rr := <-first; rr.Code != http.StatusOK {
		t.Fatalf("stalled request = %d: %s", rr.Code, rr.Body.String())
	}
	var resp mineResponse
	if rr := <-second; rr.Code != http.StatusOK {
		t.Fatalf("second request = %d: %s", rr.Code, rr.Body.String())
	} else if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	} else if !resp.Degraded || resp.Partial || resp.Fascicle == "" {
		// Admitted while the third request still waits, the second
		// request shapes its budget in a non-healthy queue, and the
		// result cache answers it with the first request's full result.
		t.Fatalf("second request not a degraded full cache hit: %+v", resp)
	}
	rr := <-third
	if rr.Code != http.StatusOK {
		t.Fatalf("degraded request = %d, want 200 partial: %s", rr.Code, rr.Body.String())
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.State != "degraded" {
		t.Fatalf("degraded request not marked: %+v", resp)
	}
	if !resp.Partial || resp.Note != "stopped by the work budget" {
		t.Fatalf("degraded request did not budget-stop into a partial: %+v", resp)
	}
	if resp.Units > 3 {
		t.Fatalf("degraded request charged %d units past the cap of 3", resp.Units)
	}
}

// TestServeShutdownDrain pins graceful shutdown: queued waiters are
// kicked with 503, /healthz flips to draining, new work is refused, and
// the in-flight request still completes with its full 200.
func TestServeShutdownDrain(t *testing.T) {
	sys := overloadSystem(t, gea.SystemOptions{MaxConcurrent: 1, AdmitTimeout: 10 * time.Second})
	gw, mux := newServeMux(sys, gea.NewObsCollector(), serveOptions{})
	release := make(chan struct{})
	gw.faults.StallAt(1, release)

	inflight := goGet(mux, "/mine?tissue=brain")
	<-gw.faults.Stalled()
	queued := goGet(mux, "/mine?tissue=brain")
	waitQueueDepth(t, sys, 1)

	shutErr := make(chan error, 1)
	go func() { shutErr <- gw.shutdown(context.Background()) }()

	if rr := <-queued; rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("kicked waiter = %d, want 503: %s", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, "/healthz"); rr.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rr.Body.String(), "draining") {
		t.Fatalf("/healthz during drain = %d: %s", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, "/mine?tissue=brain"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("new work during drain = %d, want 503", rr.Code)
	}
	select {
	case err := <-shutErr:
		t.Fatalf("shutdown returned %v with a request still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	rr := <-inflight
	if rr.Code != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d, want 200: %s", rr.Code, rr.Body.String())
	}
	var resp mineResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fascicle == "" {
		t.Fatalf("drained request lost its result: %+v", resp)
	}
	if err := <-shutErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServePanicIsolation pins per-request crash isolation: an injected
// handler panic answers 500 and the next request is served normally.
func TestServePanicIsolation(t *testing.T) {
	sys := overloadSystem(t, gea.SystemOptions{})
	gw, mux := newServeMux(sys, gea.NewObsCollector(), serveOptions{})
	gw.faults.PanicAt(1)

	rr := get(t, mux, "/mine?tissue=brain")
	if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "internal error") {
		t.Fatalf("crashed request = %d: %s", rr.Code, rr.Body.String())
	}
	if rr := get(t, mux, "/mine?tissue=brain"); rr.Code != http.StatusOK {
		t.Fatalf("request after crash = %d, want 200: %s", rr.Code, rr.Body.String())
	}
}

// TestServeRequestTimeout pins the per-request deadline: a request
// stalled past requestTimeout answers 503 with Retry-After instead of
// hanging, and the slot frees for the next caller. The deadline leaves
// room for that next caller's cold mine, which takes tens of
// milliseconds under the race detector.
func TestServeRequestTimeout(t *testing.T) {
	sys := overloadSystem(t, gea.SystemOptions{MaxConcurrent: 1})
	gw, mux := newServeMux(sys, gea.NewObsCollector(),
		serveOptions{requestTimeout: 150 * time.Millisecond})
	gw.faults.StallFor(1, time.Second)

	rr := get(t, mux, "/mine?tissue=brain")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request = %d, want 503: %s", rr.Code, rr.Body.String())
	}
	retryAfterValue(t, rr)
	if !strings.Contains(rr.Body.String(), "cancelled") {
		t.Fatalf("timeout response body: %s", rr.Body.String())
	}
	if rr := get(t, mux, "/mine?tissue=brain"); rr.Code != http.StatusOK {
		t.Fatalf("request after timeout = %d, want 200: %s", rr.Code, rr.Body.String())
	}
}

// TestServeUnknownTissue400 pins the caller-error classification: an
// unknown tissue is the caller's mistake (400), never a 500.
func TestServeUnknownTissue400(t *testing.T) {
	sys := overloadSystem(t, gea.SystemOptions{})
	_, mux := newServeMux(sys, gea.NewObsCollector(), serveOptions{})
	rr := get(t, mux, "/mine?tissue=noSuchTissue")
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "unknown tissue") {
		t.Fatalf("unknown tissue = %d: %s", rr.Code, rr.Body.String())
	}
}

// TestServeWriteJSONBufferedError pins the buffered writeJSON: an
// unencodable value becomes one clean 500, not trailing garbage after a
// started 200.
func TestServeWriteJSONBufferedError(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, http.StatusOK, make(chan int))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable value = %d, want 500", rr.Code)
	}
	if strings.Contains(rr.Body.String(), "{") {
		t.Fatalf("response mixes JSON with the error report: %s", rr.Body.String())
	}
}

// TestServeFlagErrorsReturn pins the ContinueOnError flag set: a bad
// flag comes back as an error instead of exiting the process.
func TestServeFlagErrorsReturn(t *testing.T) {
	if err := cmdServe([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("cmdServe accepted an unknown flag")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gea"
)

// This file implements "gea serve": the HTTP front door over a session,
// built to stay up under overload. /mine and every session run are
// read-only queries over one corpus generation, answered through
// System.CachedQueryCtx: each passes the session's bounded admission
// queue (a queue-timeout surfaces as 429 with Retry-After, a full queue
// as an immediate 503 with Retry-After), and once admitted, a request
// in a degraded queue or from a tenant past its envelope has its budget
// shrunk so callers get flagged partials instead of timeouts. /healthz
// reports the load state, SIGTERM drains gracefully, and with -debug
// the server also exposes the collected spans and metrics
// (/debug/spans, /debug/metrics) and the standard expvar dump
// (/debug/vars) the registry publishes into.

// serveOptions is the per-server request policy.
type serveOptions struct {
	// limits is the base per-request execution limits; the admission
	// queue's load state may shrink the budget per request.
	limits gea.ExecLimits
	// debug exposes the introspection endpoints.
	debug bool
	// requestTimeout bounds each /mine request's governed work; an
	// expired request returns 503 with Retry-After. Zero disables.
	requestTimeout time.Duration
	// ingest exposes POST /ingest; the session must have been built with
	// SystemOptions.Ingest.
	ingest bool
	// sessionExpiry and maxSessions configure the /session table; zero
	// selects the session-package defaults.
	sessionExpiry time.Duration
	maxSessions   int
}

// gateway bundles the session, the trace collector every request records
// into, the request policy, and the fault-injection schedule the serve
// tests drive.
type gateway struct {
	sys   *gea.System
	trace *gea.ObsCollector
	opts  serveOptions
	// draining flips when graceful shutdown begins: new /mine work is
	// refused with 503 before it touches the session.
	draining atomic.Bool
	// reqSeq numbers /mine requests in arrival order, the coordinate
	// system the fault schedule uses.
	reqSeq atomic.Int64
	faults *serveFaults
	// sessions owns the /session lifecycle and operator dispatch.
	sessions *gea.SessionManager
}

// newServeMux wires the HTTP routes. The debug endpoints are opt-in so a
// plain "gea serve" exposes analysis only, no introspection surface.
func newServeMux(sys *gea.System, trace *gea.ObsCollector, opts serveOptions) (*gateway, *http.ServeMux) {
	gw := &gateway{sys: sys, trace: trace, opts: opts, faults: newServeFaults()}
	gw.sessions = gea.NewSessionManager(sys, gea.SessionOptions{
		Expiry:      opts.sessionExpiry,
		MaxSessions: opts.maxSessions,
		Metrics:     trace.Metrics,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", protect(gw.handleHealthz))
	mux.HandleFunc("/mine", protect(gw.handleMine))
	mux.HandleFunc("POST /session", protect(gw.handleSessionCreate))
	mux.HandleFunc("GET /session/{id}", protect(gw.handleSessionGet))
	mux.HandleFunc("DELETE /session/{id}", protect(gw.handleSessionDelete))
	mux.HandleFunc("POST /session/{id}/run", protect(gw.handleSessionRun))
	mux.HandleFunc("GET /session/{id}/lineage", protect(gw.handleSessionLineage))
	if opts.ingest {
		mux.HandleFunc("/ingest", protect(gw.handleIngest))
	}
	if opts.debug {
		trace.Metrics.Publish("gea.metrics")
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/spans", protect(gw.handleSpans))
		mux.HandleFunc("/debug/metrics", protect(gw.handleMetrics))
	}
	return gw, mux
}

// protect isolates a panicking handler to its own request: the fault is
// answered with a 500 instead of tearing down the connection (and, under
// http.Server, the whole serving goroutine's connection state).
func protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				http.Error(w, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			}
		}()
		h(w, r)
	}
}

// shutdown begins the graceful drain: new /mine requests are refused,
// queued admission waiters are kicked, and the call blocks until every
// in-flight operator has released its slot or ctx dies.
func (gw *gateway) shutdown(ctx context.Context) error {
	gw.draining.Store(true)
	return gw.sys.Shutdown(ctx)
}

// mineResponse is the JSON body of a /mine reply.
type mineResponse struct {
	Tissue   string `json:"tissue"`
	Fascicle string `json:"fascicle,omitempty"`
	Units    int64  `json:"units"`
	Partial  bool   `json:"partial"`
	// State is the admission load state the request ran under; Degraded
	// mirrors it as a boolean for quick client checks.
	State    string `json:"state,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	// Throttled reports that the tenant's own work-budget envelope (not
	// fleet-wide load) shaped this request's budget down.
	Throttled bool   `json:"throttled,omitempty"`
	Note      string `json:"note,omitempty"`
}

// handleMine answers the pure-fascicle search for one tissue as a
// snapshot query: System.CachedQueryCtx runs gea.PureQuery with the
// request's context, recording spans and metrics into the server's
// collector, so /mine takes the session path's admission, budget
// shaping, tenant charging, single-flight and result cache, and writes
// nothing to the session's registries. A missing or unknown tissue is a
// 400, and shedding or draining a 503 with Retry-After. Budget stops
// are 200s with the partial flagged — that is the degraded mode working
// as designed — and a cancellation answers its JSON body as a 503 with
// Retry-After. writeError maps every other error.
func (gw *gateway) handleMine(w http.ResponseWriter, r *http.Request) {
	n := gw.reqSeq.Add(1)
	gw.faults.maybePanic(n)
	if gw.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	tissue := r.URL.Query().Get("tissue")
	if tissue == "" {
		http.Error(w, "missing ?tissue= parameter", http.StatusBadRequest)
		return
	}
	if _, ok := gw.sys.TissueTypes()[tissue]; !ok {
		http.Error(w, fmt.Sprintf("unknown tissue %q", tissue), http.StatusBadRequest)
		return
	}
	// Saturated sheds non-essential work before it ever queues.
	if gw.sys.AdmissionState() == gea.AdmissionSaturated && r.URL.Query().Get("priority") == "low" {
		w.Header().Set("Retry-After", retryAfterSeconds(gw.sys.AdmissionStats().AvgHold))
		http.Error(w, "saturated: low-priority request shed", http.StatusServiceUnavailable)
		return
	}

	ctx := r.Context()
	if gw.opts.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, gw.opts.requestTimeout)
		defer cancel()
	}
	ctx = gea.WithObsCollector(ctx, gw.trace)
	ctx = gea.WithExecHook(ctx, gw.faults.wrap(n, gw.trace.ExecHook()))

	q := gea.PureQuery{Tissue: tissue, TolerancePct: 10, Prop: gea.PropCancer, MinSize: 3, Algorithm: gea.LatticeAlgorithm}
	qr, err := gw.sys.CachedQueryCtx(ctx, tenantOf(r), "serve.mine", q, gw.opts.limits, q.Compute)
	resp := mineResponse{
		Tissue: tissue, Units: qr.Units, Partial: qr.Partial,
		State: qr.State.String(), Degraded: qr.State != gea.AdmissionHealthy,
		Throttled: qr.Throttled,
	}
	switch {
	case err == nil:
		resp.Fascicle = qr.Value.(string)
	case gea.IsBudget(err):
		// The work budget (possibly shrunk by degraded mode) ran out
		// before a pure fascicle appeared: a flagged partial, not a
		// failure.
		resp.Units, resp.Partial = qr.Trace.Units, true
		resp.Note = "stopped by the work budget"
	case gea.IsCancellation(err):
		// The request deadline (or the client) cancelled mid-work.
		resp.Units, resp.Note = qr.Trace.Units, "cancelled"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	default:
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ingestResponse is the JSON body of a /ingest reply: the append report
// plus the corpus generation the session serves after the commit.
type ingestResponse struct {
	*gea.IngestReport
	// Generation is the session's corpus-generation token after this
	// append (readers of /mine see exactly this corpus or a later one).
	Generation uint64 `json:"generation"`
	State      string `json:"state,omitempty"`
	Degraded   bool   `json:"degraded,omitempty"`
}

// handleIngest accepts one append batch (POST, JSON wire form). A wrong
// method is a 405 and a payload that does not decode a 400. A budget
// stop is a 503 with Retry-After, like a cancelled append, and
// writeError maps every other error (a batch-level SchemaError is a
// 400). Schema violations inside a well-formed batch are NOT errors:
// those libraries are quarantined and reported in the 200 body while
// the valid remainder commits.
func (gw *gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	if gw.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSON batch", http.StatusMethodNotAllowed)
		return
	}
	batch, err := gea.DecodeIngestBatch(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	ctx := r.Context()
	if gw.opts.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, gw.opts.requestTimeout)
		defer cancel()
	}
	ctx = gea.WithObsCollector(ctx, gw.trace)

	lim, state := gw.sys.ShapeLimits(gw.opts.limits)
	rep, _, err := gw.sys.IngestAppendCtx(ctx, batch, lim)
	if err != nil {
		if gea.IsBudget(err) {
			// Degraded-mode budget shaping stopped the apply. Nothing was
			// committed (the view swap is all-or-nothing), so the client
			// can simply retry, as after a cancelled append.
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		IngestReport: rep,
		Generation:   gw.sys.Generation(),
		State:        state.String(),
		Degraded:     state != gea.AdmissionHealthy,
	})
}

// healthResponse is the JSON body of /healthz: overall status, the
// admission load state, and the full queue snapshot.
type healthResponse struct {
	Status   string `json:"status"`
	State    string `json:"state"`
	Draining bool   `json:"draining"`
	// Generation is the corpus generation the session serves; 0 when the
	// session was built without streaming ingestion.
	Generation uint64             `json:"generation,omitempty"`
	Admission  gea.AdmissionStats `json:"admission"`
	// Sessions is the live /session count; Cache and Tenants snapshot
	// the result cache and the tenant envelopes (zero when disabled).
	Sessions int                  `json:"sessions"`
	Cache    gea.ResultCacheStats `json:"cache,omitempty"`
	Tenants  gea.TenantsStats     `json:"tenants,omitempty"`
}

// handleHealthz reports load state: 200 while serving (healthy or
// degraded — degraded is still serving), 503 once draining.
func (gw *gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := gw.sys.AdmissionStats()
	resp := healthResponse{
		Status:     "ok",
		State:      st.State.String(),
		Draining:   gw.draining.Load() || st.ShuttingDown,
		Generation: gw.sys.Generation(),
		Admission:  st,
		Sessions:   gw.sessions.Active(),
		Cache:      gw.sys.ResultCacheStats(),
		Tenants:    gw.sys.TenantStats(),
	}
	code := http.StatusOK
	if resp.Draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// handleSpans dumps the collector's retained root span records, oldest
// first — the run-record analogue of a goroutine dump.
func (gw *gateway) handleSpans(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, gw.trace.Roots())
}

// handleMetrics serves the deterministic metrics snapshot.
func (gw *gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, gw.trace.Metrics.Snapshot())
}

// writeJSON encodes compactly into one buffer before writing, so a
// mid-encode failure can still become a clean 500 instead of trailing
// garbage on a started 200, and the reply goes out with its length.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeError is the server's one error classifier: every handler sends
// the errors it does not answer itself here, so each mapping is written
// once. 429 for an admission-queue timeout and 503 for overload,
// draining or cancellation, all with Retry-After; 400 for a typed caller
// fault (a session or mining ParamError, or a batch-level SchemaError,
// which would otherwise poison the 5xx rate and be retried forever); 404
// for an unknown session vs 410 for an expired one; 409 for a double
// create; 500 otherwise. It takes the (unused) request so that it has a
// handler's shape, which is what the statusmap analyzer checks.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	var busy *gea.ErrBusy
	var overload *gea.ErrOverload
	var param *gea.SessionParamError
	var mineParam *gea.FascicleParamError
	var schema *gea.IngestSchemaError
	var exists *gea.ErrSessionExists
	switch {
	case errors.As(err, &busy):
		w.Header().Set("Retry-After", retryAfterSeconds(busy.RetryAfter))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.As(err, &overload):
		w.Header().Set("Retry-After", retryAfterSeconds(overload.RetryAfter))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, gea.ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.As(err, &param), errors.As(err, &mineParam), errors.As(err, &schema):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, gea.ErrSessionUnknown):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, gea.ErrSessionExpired):
		http.Error(w, err.Error(), http.StatusGone)
	case errors.As(err, &exists):
		http.Error(w, err.Error(), http.StatusConflict)
	case gea.IsCancellation(err):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// retryAfterSeconds renders a duration as a Retry-After header value:
// whole seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// serveFaults injects deterministic faults into the request path, in the
// spirit of internal/iofault's op-numbered scripts: /mine requests are
// numbered in arrival order, and the schedule decides which of them
// stall at their first exec checkpoint (holding their admission slot)
// or panic inside the handler. The zero schedule injects nothing, so
// production requests pay one mutex hit and a map lookup.
type serveFaults struct {
	mu      sync.Mutex
	stalls  map[int64]stallSpec
	panics  map[int64]bool
	stalled chan int64
}

// stallSpec is one scheduled stall: block on release when set,
// otherwise sleep for dur.
type stallSpec struct {
	release <-chan struct{}
	dur     time.Duration
}

func newServeFaults() *serveFaults {
	return &serveFaults{
		stalls:  map[int64]stallSpec{},
		panics:  map[int64]bool{},
		stalled: make(chan int64, 16),
	}
}

// StallAt schedules request n (1-based /mine arrival order) to block at
// its first exec checkpoint until release is closed.
func (f *serveFaults) StallAt(n int64, release <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stalls[n] = stallSpec{release: release}
}

// StallFor schedules a duration-bounded stall — the right shape for
// deadline tests, which must not deadlock if the request dies first.
func (f *serveFaults) StallFor(n int64, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stalls[n] = stallSpec{dur: d}
}

// PanicAt schedules request n to panic inside the handler.
func (f *serveFaults) PanicAt(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.panics[n] = true
}

// Stalled emits each request number as its stall begins, so tests can
// sequence arrivals against a held admission slot.
func (f *serveFaults) Stalled() <-chan int64 { return f.stalled }

func (f *serveFaults) maybePanic(n int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	injected := f.panics[n]
	f.mu.Unlock()
	if injected {
		panic(fmt.Sprintf("serveFaults: injected handler crash on request %d", n))
	}
}

// wrap composes the trace hook with request n's scheduled stall; the
// stall fires once, at the request's first checkpoint, even when shard
// workers poll checkpoints concurrently.
func (f *serveFaults) wrap(n int64, inner gea.ExecHook) gea.ExecHook {
	if f == nil {
		return inner
	}
	f.mu.Lock()
	spec, ok := f.stalls[n]
	f.mu.Unlock()
	if !ok {
		return inner
	}
	var once sync.Once
	return func(nth int64) {
		inner(nth)
		once.Do(func() {
			select {
			case f.stalled <- n:
			default:
			}
			if spec.release != nil {
				<-spec.release
			} else {
				time.Sleep(spec.dur)
			}
		})
	}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	in := fs.String("in", "SageLibrary", "corpus directory")
	addr := fs.String("addr", "127.0.0.1:7333", "listen address")
	workers := fs.Int("workers", 1, "worker count for sharded evaluation (results are identical at any setting)")
	budget := fs.Int64("budget", 0, "work-unit budget per request (0 = unlimited; exceeded requests return partial results)")
	debug := fs.Bool("debug", false, "expose /debug/vars, /debug/spans and /debug/metrics")
	maxConcurrent := fs.Int("max-concurrent", gea.DefaultMaxConcurrent, "concurrent mining operations")
	maxQueue := fs.Int("max-queue", gea.DefaultMaxQueue, "admission queue depth; a full queue answers 503 immediately")
	admitTimeout := fs.Duration("admit-timeout", 2*time.Second, "longest a request waits for an admission slot before 429")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request work deadline; expired requests answer 503")
	degradedBudget := fs.Int64("degraded-budget", 0, "budget cap applied to unlimited requests while degraded (0 = none)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown window before in-flight work is cancelled")
	ingest := fs.Bool("ingest", false, "expose POST /ingest: accept append batches, committing each as a crash-safe corpus generation in -in")
	sessionExpiry := fs.Duration("session-expiry", gea.DefaultSessionExpiry, "idle lifetime of a /session before it expires")
	maxSessions := fs.Int("max-sessions", gea.DefaultMaxSessions, "live /session bound; creation past it answers 503 with Retry-After")
	cacheEntries := fs.Int("cache-entries", gea.DefaultCacheMaxEntries, "result-cache entry bound (0 disables the cache)")
	cacheBytes := fs.Int64("cache-bytes", gea.DefaultCacheMaxBytes, "result-cache approximate byte bound")
	tenantEnvelope := fs.Int64("tenant-envelope", 0, "per-tenant work-unit envelope per window; a tenant past it has its budgets shaped down (0 disables tenant shaping)")
	tenantWindow := fs.Duration("tenant-window", gea.DefaultTenantWindow, "decay window for the tenant envelope")
	if err := fs.Parse(args); err != nil {
		return err
	}

	trace := gea.NewObsCollector()
	sysOpts := gea.SystemOptions{
		User:             "serve",
		Workers:          *workers,
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
		AdmitTimeout:     *admitTimeout,
		DegradedBudget:   *degradedBudget,
		AdmissionMetrics: trace.Metrics,
	}
	if *cacheEntries > 0 {
		sysOpts.ResultCache = &gea.ResultCacheOptions{
			MaxEntries: *cacheEntries,
			MaxBytes:   *cacheBytes,
			Metrics:    trace.Metrics,
		}
	}
	if *tenantEnvelope > 0 {
		sysOpts.TenantPolicy = &gea.TenantPolicy{
			Envelope: *tenantEnvelope,
			Window:   *tenantWindow,
			Metrics:  trace.Metrics,
		}
	}
	var corpus *gea.Corpus
	if *ingest {
		// The corpus directory doubles as the append store; a directory
		// written by "gea gen" upgrades for free, and a missing CURRENT
		// opens as an empty store that the first append initializes.
		st, loaded, problems, err := gea.OpenIngestStore(gea.OSFS, *in, gea.DefaultIngestRetry())
		if err != nil {
			return err
		}
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "gea serve: salvage: skipped %v\n", p)
		}
		corpus = loaded
		sysOpts.Ingest = &gea.SystemIngestOptions{Store: st, Metrics: trace.Metrics}
	} else {
		var err error
		corpus, err = gea.LoadCorpus(*in)
		if err != nil {
			return err
		}
	}
	sys, err := gea.NewSystem(corpus, sysOpts)
	if err != nil {
		return err
	}
	gw, mux := newServeMux(sys, trace, serveOptions{
		limits:         gea.ExecLimits{Budget: *budget, Workers: *workers},
		debug:          *debug,
		requestTimeout: *requestTimeout,
		ingest:         *ingest,
		sessionExpiry:  *sessionExpiry,
		maxSessions:    *maxSessions,
	})

	// baseCtx parents every request context; cancelling it is the hard
	// stop that unwinds in-flight operators at their next checkpoint.
	baseCtx, cancelOps := context.WithCancel(context.Background())
	defer cancelOps()
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      *requestTimeout + 5*time.Second,
		IdleTimeout:       60 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("gea serve listening on http://%s (debug endpoints: %v)\n", ln.Addr(), *debug)

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-sigCtx.Done():
	}

	// Graceful drain: stop accepting /mine work, kick queued waiters,
	// let in-flight operators finish inside the drain window; past it,
	// cancel them through the base context and wait for the unwind.
	fmt.Fprintf(os.Stderr, "gea serve: signal received, draining (window %v)\n", *drain)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	defer cancelDrain()
	if err := gw.shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "gea serve: drain window expired, cancelling in-flight operators")
		cancelOps()
		hardCtx, cancelHard := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelHard()
		if err := gw.sys.Shutdown(hardCtx); err != nil {
			return fmt.Errorf("in-flight operators did not unwind after cancellation: %w", err)
		}
	}
	closeCtx, cancelClose := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelClose()
	if err := srv.Shutdown(closeCtx); err != nil {
		srv.Close()
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "gea serve: drained, exiting")
	return nil
}

// Package obs is GEA's observability layer: spans, run records and
// metrics over the execution substrate. It is strictly zero-dependency
// (standard library only) and strictly opt-in — when no Collector is
// installed on the context, every entry point degrades to a nil-safe
// no-op and the operator hot path pays nothing beyond one context
// lookup per invocation (the same discipline as exec's hook-only
// checkpoint numbering).
//
// The model has three layers:
//
//   - A Span is one operator run in flight. internal/exec opens one at
//     the top of every metered implementation (Ctl.StartSpan) and
//     closes it on the way out (Ctl.EndSpan), so spans nest exactly as
//     the With-call tree does: a composite like core.Mine shows its
//     aggregate and populate stages as children.
//   - A Record is the immutable result of a completed span: operator
//     name, input shape, units charged, checkpoints polled, worker
//     count, wall time, outcome, children. Completed root records are
//     kept in the Collector's bounded ring and can be linked into the
//     lineage graph so provenance and performance live in one place.
//   - The Registry holds the metrics — counters, gauges and bounded
//     histograms — fed from span completion and from an exec checkpoint
//     hook adapter, and exports a deterministic Snapshot for goldens
//     plus an expvar publication for the serve endpoint.
//
// Concurrency: a Scope (one span stack) is forked per exec.New, so
// concurrent operator invocations sharing one context never interleave
// their span trees; the Collector and Registry are safe for concurrent
// use.
package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Outcome classifies how a span ended.
type Outcome string

const (
	// OutcomeOK is a clean, complete run.
	OutcomeOK Outcome = "ok"
	// OutcomePartial is a budget-truncated run that returned a flagged
	// prefix (Trace.Partial) rather than an error.
	OutcomePartial Outcome = "partial"
	// OutcomeCanceled is a run cut short by context cancellation or a
	// deadline expiry.
	OutcomeCanceled Outcome = "canceled"
	// OutcomeBudget is a run that surfaced budget exhaustion as an
	// error (composites that cannot assemble even a prefix).
	OutcomeBudget Outcome = "budget"
	// OutcomeError is an operator-level failure.
	OutcomeError Outcome = "error"
	// OutcomePanic is a run whose implementation panicked; the span was
	// closed during unwinding, before exec.Guard structured the panic.
	OutcomePanic Outcome = "panic"
	// OutcomeAbandoned marks an inner span force-closed because an
	// enclosing span ended while it was still open. It indicates an
	// instrumentation gap, never a normal path.
	OutcomeAbandoned Outcome = "abandoned"
)

// Record is the immutable result of a completed span. WallNS rather
// than time.Duration keeps the JSON form explicit for geabench and the
// serve span-dump endpoint.
type Record struct {
	Op          string    `json:"op"`
	Input       string    `json:"input,omitempty"`
	Outcome     Outcome   `json:"outcome"`
	Err         string    `json:"err,omitempty"`
	Units       int64     `json:"units"`
	Checkpoints int64     `json:"checkpoints"`
	Workers     int       `json:"workers,omitempty"`
	WallNS      int64     `json:"wall_ns"`
	Children    []*Record `json:"children,omitempty"`
}

// Walk visits r and every descendant in depth-first pre-order.
func (r *Record) Walk(fn func(*Record)) {
	if r == nil {
		return
	}
	fn(r)
	for _, c := range r.Children {
		c.Walk(fn)
	}
}

// Find returns the first record (pre-order) whose Op equals op, or nil.
func (r *Record) Find(op string) *Record {
	var found *Record
	r.Walk(func(n *Record) {
		if found == nil && n.Op == op {
			found = n
		}
	})
	return found
}

// Tree renders the record as an indented tree, one span per line —
// what the repl's "explain last" prints.
func (r *Record) Tree() string {
	var b strings.Builder
	r.tree(&b, 0)
	return b.String()
}

func (r *Record) tree(b *strings.Builder, depth int) {
	if r == nil {
		return
	}
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s %s units=%d checkpoints=%d wall=%s",
		r.Op, r.Outcome, r.Units, r.Checkpoints, time.Duration(r.WallNS).Round(time.Microsecond))
	if r.Workers > 1 {
		fmt.Fprintf(b, " workers=%d", r.Workers)
	}
	if r.Input != "" {
		fmt.Fprintf(b, " (%s)", r.Input)
	}
	if r.Err != "" {
		fmt.Fprintf(b, " err=%q", r.Err)
	}
	b.WriteByte('\n')
	for _, c := range r.Children {
		c.tree(b, depth+1)
	}
}

// Collector receives completed root records and owns the metrics
// registry they feed. Safe for concurrent use.
type Collector struct {
	// Metrics is the registry fed by span completion; callers may also
	// record their own series on it.
	Metrics *Registry

	mu    sync.Mutex
	keep  int
	roots []*Record // oldest first, bounded to keep
}

// defaultKeep bounds the root-record ring: enough for a whole repl
// session's pipeline without unbounded growth under serve.
const defaultKeep = 32

// NewCollector returns a Collector with a fresh Registry and the
// default root-record retention.
func NewCollector() *Collector {
	return &Collector{Metrics: NewRegistry(), keep: defaultKeep}
}

// SetKeep bounds how many completed root records the collector
// retains (minimum 1).
func (c *Collector) SetKeep(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	c.keep = n
	for len(c.roots) > c.keep {
		c.roots = c.roots[1:]
	}
	c.mu.Unlock()
}

// LastRoot returns the most recently completed root record, or nil.
func (c *Collector) LastRoot() *Record {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.roots) == 0 {
		return nil
	}
	return c.roots[len(c.roots)-1]
}

// Roots returns the retained root records, oldest first.
func (c *Collector) Roots() []*Record {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Record, len(c.roots))
	copy(out, c.roots)
	return out
}

// ExecHook returns a checkpoint hook (exec.Hook-shaped) that counts
// checkpoints into the collector's registry; install it with
// exec.WithHook to meter poll cadence alongside spans.
func (c *Collector) ExecHook() func(nth int64) {
	return c.Metrics.CheckpointHook()
}

// finish records a completed span into the metrics and, for roots,
// the ring.
func (c *Collector) finish(r *Record, root bool) {
	m := c.Metrics
	m.Counter("ops." + r.Op + ".count").Add(1)
	m.Counter("ops." + r.Op + ".units").Add(r.Units)
	if r.Outcome != OutcomeOK {
		m.Counter("ops." + r.Op + "." + string(r.Outcome)).Add(1)
	}
	secs := float64(r.WallNS) / 1e9
	m.Histogram("ops."+r.Op+".latency_s", LatencyBounds).Observe(secs)
	if r.Units > 0 && secs > 0 {
		m.Histogram("ops."+r.Op+".units_per_s", RateBounds).Observe(float64(r.Units) / secs)
	}
	m.Counter("spans.completed").Add(1)
	m.Gauge("spans.active").Add(-1)
	if !root {
		return
	}
	m.Counter("spans.roots").Add(1)
	c.mu.Lock()
	c.roots = append(c.roots, r)
	if len(c.roots) > c.keep {
		c.roots = c.roots[1:]
	}
	c.mu.Unlock()
}

type collectorKey struct{}

// WithCollector installs col on the context: every governed operator
// run under ctx records spans and metrics into it. A nil col returns
// ctx unchanged.
func WithCollector(ctx context.Context, col *Collector) context.Context {
	if col == nil {
		return ctx
	}
	return context.WithValue(ctx, collectorKey{}, col)
}

// FromContext returns the installed Collector, or nil.
func FromContext(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	col, _ := ctx.Value(collectorKey{}).(*Collector)
	return col
}

// Scope is one invocation's span stack. exec.New forks a fresh Scope
// per governed invocation, so concurrent operators sharing a context
// never interleave their trees; within one invocation the With-call
// chain is sequential, but Start/End still lock so shard-adjacent
// hooks observed under -race stay clean.
type Scope struct {
	col *Collector

	mu   sync.Mutex
	cur  *Span
	root *Record // last completed root of this scope
}

// NewScope returns a Scope bound to the context's Collector, or nil
// when none is installed — the disabled path.
func NewScope(ctx context.Context) *Scope {
	col := FromContext(ctx)
	if col == nil {
		return nil
	}
	return &Scope{col: col}
}

// Root returns the scope's last completed root record, or nil. Because
// a Scope belongs to exactly one invocation, this is that invocation's
// own run record — safe to link into lineage after the operator
// returns.
func (s *Scope) Root() *Record {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root
}

// Span is one operator run in flight. All methods are nil-receiver
// safe: the disabled path hands out nil spans.
type Span struct {
	scope      *Scope
	parent     *Span
	rec        *Record
	start      time.Time
	baseUnits  int64
	baseChecks int64
	ended      bool
}

// Start opens a span named op as a child of the scope's current span
// and makes it current.
func (s *Scope) Start(op string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	sp := &Span{scope: s, parent: s.cur, rec: &Record{Op: op}, start: time.Now()}
	s.cur = sp
	s.mu.Unlock()
	s.col.Metrics.Gauge("spans.active").Add(1)
	return sp
}

// Baseline records the Ctl's unit/checkpoint totals at span open, so
// End can charge the span the inclusive delta.
func (sp *Span) Baseline(units, checkpoints int64) {
	if sp == nil {
		return
	}
	sp.baseUnits = units
	sp.baseChecks = checkpoints
}

// SetInput describes the operator's input shape (e.g. "enum E: 40
// libraries x 1000 tags"). The format string is only rendered when the
// span is live.
func (sp *Span) SetInput(format string, args ...any) {
	if sp == nil {
		return
	}
	sp.rec.Input = fmt.Sprintf(format, args...)
}

// Rec returns the span's record. Its fields are final only once the
// span has ended.
func (sp *Span) Rec() *Record {
	if sp == nil {
		return nil
	}
	return sp.rec
}

// End closes the span with its outcome and the Ctl's final
// unit/checkpoint totals, delivering the completed record to the
// parent span (or, for a root, to the collector). Inner spans still
// open — possible only when an instrumentation defer was skipped — are
// force-closed as OutcomeAbandoned first, so the tree is always
// complete. Ending an already-ended span is a no-op.
func (sp *Span) End(outcome Outcome, errMsg string, units, checkpoints int64, workers int) {
	if sp == nil || sp.ended {
		return
	}
	s := sp.scope
	s.mu.Lock()
	for s.cur != nil && s.cur != sp {
		s.cur.close(OutcomeAbandoned, "", units, checkpoints, workers)
	}
	if s.cur == sp {
		sp.close(outcome, errMsg, units, checkpoints, workers)
	}
	s.mu.Unlock()
}

// close finalizes the record and pops the span; the scope lock is held.
func (sp *Span) close(outcome Outcome, errMsg string, units, checkpoints int64, workers int) {
	s := sp.scope
	r := sp.rec
	r.Outcome = outcome
	r.Err = errMsg
	r.Units = units - sp.baseUnits
	if r.Units < 0 {
		r.Units = 0
	}
	r.Checkpoints = checkpoints - sp.baseChecks
	if r.Checkpoints < 0 {
		r.Checkpoints = 0
	}
	r.Workers = workers
	r.WallNS = time.Since(sp.start).Nanoseconds()
	sp.ended = true
	s.cur = sp.parent
	root := sp.parent == nil
	if !root {
		sp.parent.rec.Children = append(sp.parent.rec.Children, r)
	} else {
		s.root = r
	}
	s.col.finish(r, root)
}

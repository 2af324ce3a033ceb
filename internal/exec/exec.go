// Package exec is the execution-governance layer for GEA's operator
// algebra. Every long-running operator (the fascicle miners, populate,
// aggregate, diff, the clustering baselines, the expression profiler)
// threads a *Ctl through its inner loops and charges work units at
// checkpoints. A Ctl carries three independent bounds:
//
//   - cooperative cancellation: the context's Done channel is polled at
//     every checkpoint, so Ctrl-C or a deadline stops an operator within
//     one checkpoint interval;
//   - a deadline: expressed through the context (context.WithTimeout /
//     WithDeadline) — no separate machinery;
//   - a work budget: a cap on total work units (candidates joined, rows
//     verified, iterations run). Budget exhaustion is NOT an error — the
//     operator stops early and returns what it has, with Trace.Partial
//     set so the truncation is explicit, never silent.
//
// Operators additionally run panic-isolated: Guard converts a panic into
// a structured *ExecError carrying the operator name and lineage node,
// so one crashing operator cannot take a session down.
//
// The charge-then-check discipline matters: an operator calls Point(n)
// BEFORE performing the n units of work, so a budget stop always means
// at least one unit was left undone — Partial is never a false alarm.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"gea/internal/obs"
)

// ErrBudget is the sentinel returned by Ctl.Point once the work budget
// is exhausted. Operators translate it into a flagged partial result
// rather than propagating it as a failure.
var ErrBudget = errors.New("exec: work budget exhausted")

// Limits bounds one operator invocation. The zero value means
// unlimited work with a checkpoint at every unit.
type Limits struct {
	// Budget caps the total work units the operator may charge.
	// <= 0 means unlimited.
	Budget int64
	// CheckEvery is the number of units between cancellation polls.
	// <= 0 means every unit. Raising it amortises the poll cost on
	// very hot loops at the price of a coarser cancellation interval.
	CheckEvery int64
	// Workers is the number of goroutines sharded operator loops may
	// use (see internal/exec/shard). <= 0 means 1 — parallelism is
	// strictly opt-in, and results are bit-identical at any setting.
	Workers int
}

// Trace reports how an operator invocation used its bounds.
type Trace struct {
	// Partial is true when the work budget expired and the result is
	// an explicitly flagged prefix of the full computation.
	Partial bool
	// Reason says why the run stopped early ("budget exhausted",
	// "context canceled", ...); empty for a clean, complete run.
	Reason string
	// Units is the total work charged.
	Units int64
	// Checkpoints is how many cancellation polls ran.
	Checkpoints int64
}

// Hook observes checkpoints as they happen; nth is 1-based. Hooks are
// test instrumentation: the checkpoint-walk driver uses them to cancel
// at the Nth checkpoint or inject a panic deterministically. A hook
// runs on the operator goroutine before the cancellation poll.
type Hook func(nth int64)

type hookKey struct{}

// WithHook attaches a checkpoint hook to ctx; New extracts it.
func WithHook(ctx context.Context, h Hook) context.Context {
	return context.WithValue(ctx, hookKey{}, h)
}

func hookFrom(ctx context.Context) Hook {
	if ctx == nil {
		return nil
	}
	h, _ := ctx.Value(hookKey{}).(Hook)
	return h
}

// Ctl meters one operator invocation (or one composite pipeline — e.g.
// Mine shares a single Ctl across the miner, aggregate and populate so
// the budget spans the whole job). Not safe for concurrent use; each
// concurrent operator gets its own Ctl. Sharded loops obtain per-worker
// child Ctls through Split/SplitWork and fold them back with Merge.
type Ctl struct {
	ctx        context.Context
	done       <-chan struct{}
	hook       Hook
	budget     int64
	checkEvery int64
	workers    int

	units       int64
	sinceCheck  int64
	checkpoints int64
	stopped     error // first budget/cancellation stop; sticky

	// seq is the shared checkpoint numbering across a shard family:
	// every child of one Split draws hook sequence numbers from the
	// same counter, so hooks observe one global 1-based stream exactly
	// as they would against the unsharded sequential loop.
	seq *atomic.Int64

	// scope is this invocation's span stack, forked per New so
	// concurrent operators sharing a context never interleave their
	// span trees; nil — the common case — disables spans entirely.
	// Shard children deliberately do not inherit it: kernels meter
	// units, operators own spans.
	scope *obs.Scope
}

// New builds a Ctl from a context and limits. A nil ctx behaves like
// context.Background().
func New(ctx context.Context, lim Limits) *Ctl {
	c := &Ctl{ctx: ctx, budget: lim.Budget, checkEvery: lim.CheckEvery, workers: lim.Workers}
	if c.checkEvery <= 0 {
		c.checkEvery = 1
	}
	if c.workers <= 0 {
		c.workers = 1
	}
	if ctx != nil {
		c.done = ctx.Done()
		c.hook = hookFrom(ctx)
		c.scope = obs.NewScope(ctx)
	}
	return c
}

// Background returns an unbounded Ctl: no context, no budget, one
// worker. Callers with no bound pass it to an operator's metered form
// directly; bounded callers wrap that form in Run instead.
func Background() *Ctl {
	return New(context.Background(), Limits{})
}

// Point charges n units of upcoming work and, at checkpoint cadence,
// polls for cancellation and budget exhaustion. It returns nil to
// proceed, the context error on cancellation/deadline, or ErrBudget
// when the budget is spent. Once stopped, every later call returns the
// same error, so composite operators cannot accidentally resume.
func (c *Ctl) Point(n int64) error {
	if c == nil {
		return nil
	}
	if c.stopped != nil {
		return c.stopped
	}
	c.units += n
	c.sinceCheck += n
	if c.sinceCheck < c.checkEvery {
		return nil
	}
	c.sinceCheck = 0
	return c.check()
}

func (c *Ctl) check() error {
	c.checkpoints++
	nth := c.checkpoints
	if c.seq != nil {
		nth = c.seq.Add(1)
	}
	if c.hook != nil {
		c.hook(nth)
	}
	if c.stopped != nil {
		return c.stopped
	}
	if c.done != nil {
		select {
		case <-c.done:
			c.stopped = c.ctx.Err()
			return c.stopped
		default:
		}
	}
	if c.budget > 0 && c.units >= c.budget {
		c.stopped = ErrBudget
		return c.stopped
	}
	return nil
}

// Exhausted reports whether this Ctl has already stopped on budget
// exhaustion; composite operators use it to skip follow-on stages.
func (c *Ctl) Exhausted() bool {
	return c != nil && errors.Is(c.stopped, ErrBudget)
}

// Err returns the sticky stop error, if any.
func (c *Ctl) Err() error {
	if c == nil {
		return nil
	}
	return c.stopped
}

// Affords reports whether n more units can be charged without the
// budget stopping this Ctl: it has not stopped, and it has no budget or
// more than n units of it remain.
func (c *Ctl) Affords(n int64) bool {
	if c == nil {
		return true
	}
	return c.stopped == nil && (c.budget <= 0 || c.budget-c.units > n)
}

// Units returns the work charged so far.
func (c *Ctl) Units() int64 {
	if c == nil {
		return 0
	}
	return c.units
}

// Workers returns the worker count this Ctl authorises for sharded
// loops; it is always at least 1.
func (c *Ctl) Workers() int {
	if c == nil || c.workers <= 1 {
		return 1
	}
	return c.workers
}

// Split divides the remaining budget evenly across n child Ctls, one
// per worker. Each child inherits the parent's context, hook and
// checkpoint cadence and preserves the charge-then-check discipline
// against its own budget slice; fold the children back with Merge.
// Callers that know how much work each child will perform should use
// SplitWork instead so slices are proportional to the work.
func (c *Ctl) Split(n int) []*Ctl {
	if n < 1 {
		n = 1
	}
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = 1
	}
	return c.SplitWork(counts)
}

// SplitWork divides the remaining budget across len(counts) child
// Ctls in proportion to each child's planned work, where counts[i] is
// the number of units child i will charge if it runs to completion.
// The split is exact and deterministic: slices sum to the remaining
// budget, a child whose slice is zero is born already stopped on
// ErrBudget, and when the remaining budget covers all the planned
// work every child runs uncapped (so an ample parent budget can never
// produce a spurious partial). Children also inherit the parent's
// checkpoint phase: child i starts its cadence at the point the
// sequential loop would have reached at the child's first unit, so
// checkpoint positions — and hook sequence numbers, drawn from one
// shared counter — are identical to the unsharded loop.
func (c *Ctl) SplitWork(counts []int64) []*Ctl {
	kids := make([]*Ctl, len(counts))
	if c == nil {
		return kids // nil Ctl is inert; so are its children
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	rem := int64(-1) // -1 means the children run uncapped
	if c.budget > 0 && total > 0 {
		rem = c.budget - c.units
		if rem < 0 {
			rem = 0
		}
		if rem > total {
			rem = -1
		}
	}
	// The shared checkpoint numbering exists for the hook's benefit: its
	// sequence numbers must match the unsharded loop. Without a hook the
	// numbers are observable by nobody, and the contended atomic would
	// throttle fine-grained kernels, so each child counts locally and
	// Merge reconciles the totals.
	seq := c.seq
	if seq == nil && c.hook != nil {
		seq = new(atomic.Int64)
		seq.Store(c.checkpoints)
	}
	var lo int64 // cumulative units before child i
	for i := range kids {
		kid := &Ctl{
			ctx:        c.ctx,
			done:       c.done,
			hook:       c.hook,
			checkEvery: c.checkEvery,
			workers:    1,
			sinceCheck: (c.sinceCheck + lo) % c.checkEvery,
			seq:        seq,
		}
		if rem >= 0 {
			// Cumulative-floor apportioning: slices sum exactly to rem
			// and depend only on (rem, counts), never on worker count.
			slice := rem*(lo+counts[i])/total - rem*lo/total
			if slice == 0 {
				kid.stopped = ErrBudget
			} else {
				kid.budget = slice
			}
		}
		kids[i] = kid
		lo += counts[i]
	}
	return kids
}

// Merge folds Split/SplitWork children back into the parent: Units()
// and Checkpoints totals are exact, the cadence phase advances as if
// the parent had charged every unit itself, and — if the parent is not
// already stopped — it adopts the first stopped child's error in child
// order, so budget exhaustion and cancellation stay sticky across the
// whole pipeline exactly as in the sequential loop.
func (c *Ctl) Merge(kids ...*Ctl) {
	if c == nil {
		return
	}
	var units, checks int64
	var stop error
	for _, k := range kids {
		if k == nil {
			continue
		}
		units += k.units
		checks += k.checkpoints
		if stop == nil && k.stopped != nil {
			stop = k.stopped
		}
	}
	c.units += units
	c.checkpoints += checks
	if c.checkEvery > 0 {
		c.sinceCheck = (c.sinceCheck + units) % c.checkEvery
	}
	if c.stopped == nil {
		c.stopped = stop
	}
}

// Snapshot captures the invocation's Trace. partial is supplied by the
// operator (only it knows whether it assembled a truncated result).
func (c *Ctl) Snapshot(partial bool) Trace {
	if c == nil {
		return Trace{Partial: partial}
	}
	t := Trace{Partial: partial, Units: c.units, Checkpoints: c.checkpoints}
	if c.stopped != nil {
		t.Reason = c.stopped.Error()
	}
	return t
}

// ExecError is the structured failure produced when an operator panics
// (or stops on cancellation inside Guard): it carries the operator
// name, the lineage node being computed, and — for panics — the
// recovered value and stack.
type ExecError struct {
	Op         string // operator, e.g. "fascicle.Lattice"
	Node       string // lineage node / result name, when known
	Err        error  // underlying cause; nil for bare panics
	PanicValue any    // non-nil when the operator panicked
	Stack      []byte // goroutine stack at recovery, for panics
}

func (e *ExecError) Error() string {
	where := e.Op
	if e.Node != "" {
		where += " (" + e.Node + ")"
	}
	if e.PanicValue != nil {
		return fmt.Sprintf("exec: %s: panic: %v", where, e.PanicValue)
	}
	return fmt.Sprintf("exec: %s: %v", where, e.Err)
}

func (e *ExecError) Unwrap() error { return e.Err }

// Guard runs fn panic-isolated. A panic is recovered into an
// *ExecError; a cancellation/deadline error is wrapped into one too
// (so callers learn which operator was cut short) while still
// satisfying errors.Is(err, context.Canceled / DeadlineExceeded).
// All other errors pass through untouched.
func Guard(op, node string, fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &ExecError{
				Op:         op,
				Node:       node,
				PanicValue: rec,
				Stack:      debug.Stack(),
			}
		}
	}()
	err = fn()
	if err != nil && IsCancellation(err) {
		var ee *ExecError
		if !errors.As(err, &ee) { // don't double-wrap nested operators
			err = &ExecError{Op: op, Node: node, Err: err}
		}
	}
	return err
}

// Run invokes one metered operator under governance: it builds the Ctl
// from ctx and lim, runs fn panic-isolated under Guard(op, node, ...),
// and returns the value with the run's Trace. On an error the value is
// the zero R; on a budget stop it is fn's flagged partial value with a
// nil error and Trace.Partial set.
func Run[R any](ctx context.Context, lim Limits, op, node string, fn func(*Ctl) (R, bool, error)) (R, Trace, error) {
	c := New(ctx, lim)
	var res R
	var partial bool
	err := Guard(op, node, func() error {
		var err error
		res, partial, err = fn(c)
		return err
	})
	if err != nil {
		var zero R
		res = zero
	}
	return res, c.Snapshot(partial), err
}

// IsCancellation reports whether err stems from context cancellation
// or a deadline expiry.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// IsBudget reports whether err is the budget-exhausted sentinel.
func IsBudget(err error) bool { return errors.Is(err, ErrBudget) }

// StartSpan opens an observability span for one operator run on this
// Ctl's scope, baselined at the current unit/checkpoint totals so the
// span charges the inclusive delta. With no collector installed it
// returns nil, and every obs method on a nil span is a no-op — the
// disabled path costs one nil check per operator invocation, not per
// unit.
func (c *Ctl) StartSpan(op string) *obs.Span {
	if c == nil || c.scope == nil {
		return nil
	}
	sp := c.scope.Start(op)
	sp.Baseline(c.units, c.checkpoints)
	return sp
}

// EndSpan completes a span opened by StartSpan. Defer it DIRECTLY from
// the metered implementation, over pointers to the named results:
//
//	func XWith(c *exec.Ctl, ...) (res R, partial bool, err error) {
//		sp := c.StartSpan("pkg.X")
//		defer c.EndSpan(sp, &partial, &err)
//		...
//
// Being the deferred function itself gives it recover authority: a
// panic unwinding through the operator is caught just long enough to
// close the span (and any open children) as OutcomePanic, then
// re-raised for Guard to structure. On normal returns it classifies
// the outcome from the final partial/err values.
func (c *Ctl) EndSpan(sp *obs.Span, partial *bool, err *error) {
	if rec := recover(); rec != nil {
		sp.End(obs.OutcomePanic, fmt.Sprint(rec), c.Units(), c.Checkpoints(), c.Workers())
		panic(rec)
	}
	if sp == nil {
		return
	}
	var p bool
	if partial != nil {
		p = *partial
	}
	var e error
	if err != nil {
		e = *err
	}
	outcome := obs.OutcomeOK
	msg := ""
	switch {
	case e == nil && p:
		outcome = obs.OutcomePartial
	case e != nil:
		msg = e.Error()
		var ee *ExecError
		switch {
		case IsCancellation(e):
			outcome = obs.OutcomeCanceled
		case IsBudget(e):
			outcome = obs.OutcomeBudget
		case errors.As(e, &ee) && ee.PanicValue != nil:
			// A nested operator panicked and Guard already structured
			// it; the enclosing span reports the run for what it was.
			outcome = obs.OutcomePanic
		default:
			outcome = obs.OutcomeError
		}
	}
	sp.End(outcome, msg, c.Units(), c.Checkpoints(), c.Workers())
}

// Checkpoints returns how many cancellation polls have run.
func (c *Ctl) Checkpoints() int64 {
	if c == nil {
		return 0
	}
	return c.checkpoints
}

// RunRecord returns this invocation's completed root span record, or
// nil (no collector, or the root span has not ended yet). Because the
// scope is private to the invocation, the record is safe to link into
// lineage once the operator has returned.
func (c *Ctl) RunRecord() *obs.Record {
	if c == nil {
		return nil
	}
	return c.scope.Root()
}

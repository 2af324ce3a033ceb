// Package admission is the bounded FIFO admission queue that fronts a
// session's heavy operations. It replaces a bare counting semaphore
// with three properties a server front door needs under overload:
//
//   - Backpressure with a hard edge: at most MaxActive operations run
//     and at most MaxQueue callers wait. The next caller is rejected
//     immediately with a typed *ErrOverload carrying retry-after
//     advice, instead of burning its own timeout in a blind queue.
//   - Observable waiting: an enqueued caller holds a Ticket that
//     reports its queue position and an expected wait estimated from
//     the recent hold-time average, and it leaves the queue the moment
//     its context dies.
//   - Load shedding: a small state machine (Healthy → Degraded →
//     Saturated) driven by queue depth and the recent admission-wait
//     average. Degraded shrinks per-request exec.Limits budgets via
//     Shape so requests return flagged partials instead of timing out;
//     Saturated is the signal to shed non-essential work entirely.
//
// Shutdown flips the queue into draining: queued waiters are kicked
// with ErrShutdown, new callers are refused, and the call blocks until
// every admitted operation has released its slot.
//
// All metrics are optional: pass Options.Metrics to record gauges,
// counters and a wait histogram into an obs.Registry; a nil registry
// makes every instrument a no-op.
package admission

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"gea/internal/exec"
	"gea/internal/obs"
)

// Defaults for Options fields left zero.
const (
	// DefaultMaxActive matches the session's historical MaxConcurrent
	// default.
	DefaultMaxActive = 4
	// DefaultMaxQueue bounds how many callers may wait behind the
	// active set before new arrivals are rejected outright.
	DefaultMaxQueue = 16
	// DefaultRetryAfter is the retry advice handed out before the
	// queue has observed any hold times to extrapolate from.
	DefaultRetryAfter = time.Second
)

// ewmaAlpha is the smoothing factor for the wait/hold averages: recent
// samples dominate within a handful of observations.
const ewmaAlpha = 0.3

// degradeFactor scales explicit request budgets while the queue is
// Degraded or Saturated, and a throttled tenant's (see Tenants.Shape).
const degradeFactor = 0.25

// State is the queue's load-shedding state.
type State int

const (
	// Healthy: requests run with their full budgets.
	Healthy State = iota
	// Degraded: the queue is backing up; Shape shrinks budgets so
	// requests return flagged partials instead of timing out.
	Degraded
	// Saturated: the queue is nearly full; non-essential work should
	// be shed before it ever enqueues.
	Saturated
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Saturated:
		return "saturated"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// MarshalJSON renders the state as its string form, so /healthz and
// Stats read as "degraded" rather than a bare integer.
func (s State) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Options configures a Queue; the zero value selects the defaults.
//
// The load-shedding thresholds derive from MaxQueue and AdmitTimeout:
// Healthy tips into Degraded at queue depth max(1, MaxQueue/2), or when
// the recent-average admission wait reaches AdmitTimeout/2 (never when
// AdmitTimeout is zero), and into Saturated at depth 9*MaxQueue/10, at
// least one above the degrade depth and at most MaxQueue.
type Options struct {
	// MaxActive bounds concurrently admitted operations; zero means
	// DefaultMaxActive.
	MaxActive int
	// MaxQueue bounds waiting callers; zero means DefaultMaxQueue.
	MaxQueue int
	// AdmitTimeout bounds how long Ticket.Wait queues before giving up
	// with *ErrTimeout. Zero disables the timer: waiters leave only on
	// admission, context death or shutdown.
	AdmitTimeout time.Duration
	// DegradedBudget caps otherwise-unlimited request budgets while
	// Degraded or Saturated; zero leaves unlimited budgets unlimited.
	DegradedBudget int64
	// Metrics optionally records admission gauges, counters and the
	// wait histogram; nil disables instrumentation.
	Metrics *obs.Registry
}

// ErrOverload reports a full queue: the caller was rejected
// immediately, with retry advice extrapolated from recent hold times.
type ErrOverload struct {
	// QueueLen is the queue depth at rejection time.
	QueueLen int
	// RetryAfter estimates when a retry might find room.
	RetryAfter time.Duration
}

func (e *ErrOverload) Error() string {
	return fmt.Sprintf("admission: overloaded: queue full at %d waiters, retry after %v", e.QueueLen, e.RetryAfter)
}

// ErrTimeout reports a waiter that gave up after AdmitTimeout without
// being admitted.
type ErrTimeout struct {
	// Waited is how long the caller queued before giving up.
	Waited time.Duration
	// Position is the 1-based queue position it held at enqueue.
	Position int
	// RetryAfter estimates when a retry might be admitted promptly.
	RetryAfter time.Duration
}

func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("admission: no slot after %v (queued at position %d)", e.Waited, e.Position)
}

// ErrShutdown is returned to new callers and kicked waiters once
// Shutdown has begun.
var ErrShutdown = errors.New("admission: shutting down")

// waiter is one queued caller. enqueued is set before the waiter is
// visible; admitTime and the kicked/done flags are written only under
// Queue.mu before ready is closed, so a reader that re-locks after
// <-ready observes them safely.
type waiter struct {
	ready     chan struct{}
	enqueued  time.Time
	admitTime time.Time
	kicked    bool
	done      bool
}

// meters bundles the queue's cached metric handles; every handle is
// nil (a no-op) when no registry was supplied.
type meters struct {
	active, depth, state                                       *obs.Gauge
	admitted, rejected, timedOut, canceled, kicked, transition *obs.Counter
	wait                                                       *obs.Histogram
}

// Queue is the admission queue. The zero value is not usable; build
// one with New.
type Queue struct {
	maxActive      int
	maxQueue       int
	admitTimeout   time.Duration
	degradeAt      int
	saturateAt     int
	degradeWait    time.Duration
	degradedBudget int64
	m              meters

	mu            sync.Mutex
	active        int
	q             []*waiter
	shut          bool
	drained       chan struct{}
	drainedClosed bool
	state         State
	avgWaitNS     float64
	avgHoldNS     float64

	admitted    int64
	rejected    int64
	timedOut    int64
	canceled    int64
	kicked      int64
	transitions int64
}

// New builds a queue from opts; zero fields select the defaults.
func New(opts Options) *Queue {
	if opts.MaxActive <= 0 {
		opts.MaxActive = DefaultMaxActive
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = DefaultMaxQueue
	}
	degradeAt := max(1, opts.MaxQueue/2)
	saturateAt := min(max(opts.MaxQueue*9/10, degradeAt+1), opts.MaxQueue)
	q := &Queue{
		maxActive:      opts.MaxActive,
		maxQueue:       opts.MaxQueue,
		admitTimeout:   opts.AdmitTimeout,
		degradeAt:      degradeAt,
		saturateAt:     saturateAt,
		degradeWait:    opts.AdmitTimeout / 2,
		degradedBudget: opts.DegradedBudget,
		drained:        make(chan struct{}),
	}
	r := opts.Metrics
	q.m = meters{
		active:     r.Gauge("admission.active"),
		depth:      r.Gauge("admission.queue_depth"),
		state:      r.Gauge("admission.state"),
		admitted:   r.Counter("admission.admitted"),
		rejected:   r.Counter("admission.rejected_overload"),
		timedOut:   r.Counter("admission.timed_out"),
		canceled:   r.Counter("admission.canceled"),
		kicked:     r.Counter("admission.shutdown_kicked"),
		transition: r.Counter("admission.transitions"),
		wait:       r.Histogram("admission.wait_s", obs.LatencyBounds),
	}
	return q
}

// Ticket is one caller's place in the admission flow: either already
// admitted (Position 0) or queued until Wait resolves it.
type Ticket struct {
	q        *Queue
	w        *waiter // nil when admitted immediately at Enqueue
	admitted time.Time
	pos      int
	wait     time.Duration
	state    State
	start    time.Time
}

// Position is the 1-based queue position at enqueue; 0 means the
// caller was admitted immediately.
func (t *Ticket) Position() int { return t.pos }

// ExpectedWait estimates how long this ticket will queue, from the
// recent hold-time average; zero when admitted immediately or before
// any hold times have been observed.
func (t *Ticket) ExpectedWait() time.Duration { return t.wait }

// State is the load state observed at enqueue time. Callers shape
// their budgets from this one observation so a single request sees a
// consistent policy even while the state machine keeps moving.
func (t *Ticket) State() State { return t.state }

// Enqueue claims a slot or a queue position. It never blocks: the
// caller is admitted immediately, queued (resolve with Wait), or
// rejected with ErrShutdown, the context's own error (dead caller that
// would have had to wait), or *ErrOverload (queue full). A context
// that is already dead is still admitted when a free slot means no
// waiting — the governed operator sees the cancellation at its first
// checkpoint with full structured-error context, exactly as the old
// semaphore behaved.
func (q *Queue) Enqueue(ctx context.Context) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.shut {
		return nil, ErrShutdown
	}
	now := time.Now()
	if q.active < q.maxActive && len(q.q) == 0 {
		q.active++
		q.admitted++
		q.m.admitted.Add(1)
		q.m.wait.Observe(0)
		t := &Ticket{q: q, admitted: now, state: q.state, start: now}
		q.noteLocked()
		return t, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(q.q) >= q.maxQueue {
		q.rejected++
		q.m.rejected.Add(1)
		return nil, &ErrOverload{QueueLen: len(q.q), RetryAfter: q.retryAfterLocked()}
	}
	w := &waiter{ready: make(chan struct{}), enqueued: now}
	q.q = append(q.q, w)
	pos := len(q.q)
	t := &Ticket{q: q, w: w, pos: pos, wait: q.expectedWaitLocked(pos), state: q.state, start: now}
	q.noteLocked()
	return t, nil
}

// Wait blocks until the ticket is admitted, the context dies, the
// queue's AdmitTimeout elapses, or shutdown kicks the waiter. On
// success it returns the release function; calling it more than once
// is safe. A waiter that loses the admission race to its own
// cancellation returns the slot before reporting the context error.
func (t *Ticket) Wait(ctx context.Context) (func(), error) {
	q := t.q
	if t.w == nil {
		return q.releaseFunc(t.admitted), nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var timeout <-chan time.Time
	if q.admitTimeout > 0 {
		timer := time.NewTimer(q.admitTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-t.w.ready:
	case <-ctx.Done():
		if q.abandon(t.w, &q.canceled, q.m.canceled) {
			return nil, ctx.Err()
		}
		// Lost the race: the waiter was admitted or kicked under the
		// lock before abandon got it, so ready is already closed.
		<-t.w.ready
	case <-timeout:
		if q.abandon(t.w, &q.timedOut, q.m.timedOut) {
			return nil, &ErrTimeout{Waited: time.Since(t.start), Position: t.pos, RetryAfter: q.retryAfter()}
		}
		<-t.w.ready
	}
	q.mu.Lock()
	kicked := t.w.kicked
	admitted := t.w.admitTime
	q.mu.Unlock()
	if kicked {
		return nil, ErrShutdown
	}
	if err := ctx.Err(); err != nil {
		// Admitted, but the caller is gone: give the slot back so a
		// dead request can never leak capacity.
		q.release(admitted)
		return nil, err
	}
	return q.releaseFunc(admitted), nil
}

// Acquire is Enqueue followed by Wait: the blocking one-call form the
// session's operator entry points use.
func (q *Queue) Acquire(ctx context.Context) (func(), error) {
	t, err := q.Enqueue(ctx)
	if err != nil {
		return nil, err
	}
	return t.Wait(ctx)
}

// releaseFunc wraps release in a Once so double-releasing a slot is
// harmless.
func (q *Queue) releaseFunc(admitted time.Time) func() {
	var once sync.Once
	return func() { once.Do(func() { q.release(admitted) }) }
}

// release frees one admitted slot, handing it to the queue head (FIFO)
// unless shutdown has begun.
func (q *Queue) release(admitted time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.avgHoldNS = ewma(q.avgHoldNS, float64(time.Since(admitted)))
	if !q.shut && len(q.q) > 0 {
		w := q.q[0]
		q.q = q.q[1:]
		w.done = true
		now := time.Now()
		w.admitTime = now
		wait := float64(now.Sub(w.enqueued))
		q.avgWaitNS = ewma(q.avgWaitNS, wait)
		q.admitted++
		q.m.admitted.Add(1)
		q.m.wait.Observe(wait / 1e9)
		close(w.ready)
	} else {
		q.active--
	}
	q.noteLocked()
}

// abandon removes a still-queued waiter (context death or timeout).
// It returns false when the waiter already left the queue — admitted
// or kicked — in which case ready is already closed.
func (q *Queue) abandon(w *waiter, slot *int64, c *obs.Counter) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if w.done {
		return false
	}
	for i, x := range q.q {
		if x == w {
			q.q = append(q.q[:i], q.q[i+1:]...)
			w.done = true
			*slot++
			c.Add(1)
			q.noteLocked()
			return true
		}
	}
	return false
}

// Shutdown begins draining: new callers get ErrShutdown, every queued
// waiter is kicked with ErrShutdown, and the call blocks until all
// admitted operations release (or ctx dies first). Idempotent; later
// calls just wait for the drain.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if !q.shut {
		q.shut = true
		for _, w := range q.q {
			w.kicked = true
			w.done = true
			q.kicked++
			q.m.kicked.Add(1)
			close(w.ready)
		}
		q.q = nil
		q.noteLocked()
	}
	drained := q.drained
	q.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shape applies the load-shedding policy to a request's limits and
// reports the state it applied: Degraded and Saturated shrink explicit
// budgets to a quarter and cap unlimited budgets at DegradedBudget, so
// overloaded requests finish early with flagged partials instead of
// holding slots until they time out.
func (q *Queue) Shape(lim exec.Limits) (exec.Limits, State) {
	q.mu.Lock()
	st := q.state
	q.mu.Unlock()
	if st == Healthy {
		return lim, st
	}
	if lim.Budget > 0 {
		lim.Budget = max(1, int64(float64(lim.Budget)*degradeFactor))
	} else if q.degradedBudget > 0 {
		lim.Budget = q.degradedBudget
	}
	return lim, st
}

// State reports the current load state.
func (q *Queue) State() State {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.state
}

// Stats is a point-in-time snapshot of the queue, JSON-ready for
// /healthz.
type Stats struct {
	State        State         `json:"state"`
	Active       int           `json:"active"`
	QueueDepth   int           `json:"queue_depth"`
	MaxActive    int           `json:"max_active"`
	MaxQueue     int           `json:"max_queue"`
	Admitted     int64         `json:"admitted"`
	Rejected     int64         `json:"rejected"`
	TimedOut     int64         `json:"timed_out"`
	Canceled     int64         `json:"canceled"`
	Kicked       int64         `json:"kicked"`
	Transitions  int64         `json:"transitions"`
	AvgWait      time.Duration `json:"avg_wait_ns"`
	AvgHold      time.Duration `json:"avg_hold_ns"`
	ShuttingDown bool          `json:"shutting_down"`
}

// Stats snapshots the queue's counters and state.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		State:        q.state,
		Active:       q.active,
		QueueDepth:   len(q.q),
		MaxActive:    q.maxActive,
		MaxQueue:     q.maxQueue,
		Admitted:     q.admitted,
		Rejected:     q.rejected,
		TimedOut:     q.timedOut,
		Canceled:     q.canceled,
		Kicked:       q.kicked,
		Transitions:  q.transitions,
		AvgWait:      time.Duration(q.avgWaitNS),
		AvgHold:      time.Duration(q.avgHoldNS),
		ShuttingDown: q.shut,
	}
}

// noteLocked refreshes gauges, advances the state machine, and closes
// the drain latch once shutdown has no admitted work left. An idle
// queue resets the wait average so stale latency history from a past
// burst cannot pin the state away from Healthy.
func (q *Queue) noteLocked() {
	depth := len(q.q)
	q.m.active.Set(int64(q.active))
	q.m.depth.Set(int64(depth))
	if q.shut && q.active == 0 && !q.drainedClosed {
		q.drainedClosed = true
		close(q.drained)
	}
	next := q.state
	if depth == 0 && q.active == 0 {
		q.avgWaitNS = 0
		next = Healthy
	} else {
		next = q.nextStateLocked(depth)
	}
	if next != q.state {
		q.state = next
		q.transitions++
		q.m.transition.Add(1)
	}
	q.m.state.Set(int64(q.state))
}

// nextStateLocked is the hysteresis rule: tipping into Degraded or
// Saturated is eager (depth or recent wait crosses its threshold);
// recovering requires clear headroom so the state doesn't flap at the
// boundary.
func (q *Queue) nextStateLocked(depth int) State {
	wait := time.Duration(q.avgWaitNS)
	switch q.state {
	case Degraded:
		if depth >= q.saturateAt {
			return Saturated
		}
		if depth <= q.degradeAt/2 && (q.degradeWait <= 0 || wait < q.degradeWait/2) {
			return Healthy
		}
		return Degraded
	case Saturated:
		if depth < q.degradeAt {
			return Degraded
		}
		return Saturated
	default:
		if depth >= q.saturateAt {
			return Saturated
		}
		if depth >= q.degradeAt || (q.degradeWait > 0 && wait >= q.degradeWait) {
			return Degraded
		}
		return Healthy
	}
}

// retryAfterLocked extrapolates retry advice for a rejected caller:
// roughly how long until the current queue plus one more wave of
// active holders has churned through.
func (q *Queue) retryAfterLocked() time.Duration {
	if q.avgHoldNS <= 0 {
		return DefaultRetryAfter
	}
	waves := (len(q.q)+q.maxActive-1)/q.maxActive + 1
	return time.Duration(q.avgHoldNS * float64(waves))
}

func (q *Queue) retryAfter() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.retryAfterLocked()
}

// expectedWaitLocked estimates the wait at a 1-based queue position
// from the recent hold average; zero before any holds were observed.
func (q *Queue) expectedWaitLocked(pos int) time.Duration {
	if q.avgHoldNS <= 0 || pos <= 0 {
		return 0
	}
	waves := (pos + q.maxActive - 1) / q.maxActive
	return time.Duration(q.avgHoldNS * float64(waves))
}

// ewma folds one sample into a decaying average, seeding from the
// first sample.
func ewma(old, sample float64) float64 {
	if old <= 0 {
		return sample
	}
	return old*(1-ewmaAlpha) + sample*ewmaAlpha
}

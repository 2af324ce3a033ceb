package admission

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"gea/internal/exec"
	"gea/internal/obs"
)

// TestAdmissionImmediate proves callers under MaxActive are admitted
// without queueing and report Position 0.
func TestAdmissionImmediate(t *testing.T) {
	q := New(Options{MaxActive: 2, MaxQueue: 4})
	for i := 0; i < 2; i++ {
		tk, err := q.Enqueue(context.Background())
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		if tk.Position() != 0 {
			t.Fatalf("enqueue %d: position %d, want 0 (immediate)", i, tk.Position())
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	tk, err := q.Enqueue(context.Background())
	if err != nil {
		t.Fatalf("third enqueue: %v", err)
	}
	if tk.Position() != 1 {
		t.Fatalf("third caller: position %d, want 1", tk.Position())
	}
	st := q.Stats()
	if st.Active != 2 || st.QueueDepth != 1 {
		t.Fatalf("stats: %+v, want active 2 queue 1", st)
	}
}

// TestAdmissionFIFOOrder enqueues waiters in a known order behind a
// held slot and checks slots are handed out strictly in that order,
// even while releases race with the waiters' own scheduling.
func TestAdmissionFIFOOrder(t *testing.T) {
	q := New(Options{MaxActive: 1, MaxQueue: 16})
	release, err := q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	order := make(chan int, n)
	waited := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		tk, err := q.Enqueue(context.Background())
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		if tk.Position() != i+1 {
			t.Fatalf("waiter %d: position %d, want %d", i, tk.Position(), i+1)
		}
		go func(i int, tk *Ticket) {
			rel, err := tk.Wait(context.Background())
			if err != nil {
				order <- -1
				return
			}
			order <- i
			// Release before signalling, so the idle check after the
			// last signal cannot see this slot still held.
			rel()
			waited <- struct{}{}
		}(i, tk)
	}

	release()
	for want := 0; want < n; want++ {
		got := <-order
		if got != want {
			t.Fatalf("admission order: got waiter %d, want %d", got, want)
		}
		<-waited
	}
	st := q.Stats()
	if st.Active != 0 || st.QueueDepth != 0 {
		t.Fatalf("after drain: %+v, want idle", st)
	}
}

// TestAdmissionOverloadReject fills the queue and checks the next
// caller is rejected immediately with retry advice, not blocked.
func TestAdmissionOverloadReject(t *testing.T) {
	q := New(Options{MaxActive: 1, MaxQueue: 2})
	release, err := q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for i := 0; i < 2; i++ {
		if _, err := q.Enqueue(context.Background()); err != nil {
			t.Fatalf("queueing caller %d: %v", i, err)
		}
	}
	start := time.Now()
	_, err = q.Enqueue(context.Background())
	var over *ErrOverload
	if !errors.As(err, &over) {
		t.Fatalf("full queue: got %v, want *ErrOverload", err)
	}
	if over.QueueLen != 2 || over.RetryAfter <= 0 {
		t.Fatalf("overload detail: %+v", over)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("rejection took %v, want immediate", elapsed)
	}
	if !strings.Contains(over.Error(), "retry after") {
		t.Fatalf("error text: %q", over.Error())
	}
	if got := q.Stats().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestAdmissionTimeoutTicket checks a waiter gives up with *ErrTimeout
// after AdmitTimeout, and the queue forgets it.
func TestAdmissionTimeoutTicket(t *testing.T) {
	q := New(Options{MaxActive: 1, MaxQueue: 4, AdmitTimeout: 30 * time.Millisecond})
	release, err := q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	_, err = q.Acquire(context.Background())
	var to *ErrTimeout
	if !errors.As(err, &to) {
		t.Fatalf("got %v, want *ErrTimeout", err)
	}
	if to.Waited < 30*time.Millisecond || to.Position != 1 || to.RetryAfter <= 0 {
		t.Fatalf("timeout detail: %+v (elapsed %v)", to, time.Since(start))
	}
	if st := q.Stats(); st.QueueDepth != 0 || st.TimedOut != 1 {
		t.Fatalf("after timeout: %+v, want empty queue, timed_out 1", st)
	}
}

// TestAdmissionContextCancelLeavesQueue checks a cancelled waiter
// leaves the queue and later waiters still get slots in order.
func TestAdmissionContextCancelLeavesQueue(t *testing.T) {
	q := New(Options{MaxActive: 1, MaxQueue: 4})
	release, err := q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := q.Enqueue(ctx)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := q.Enqueue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := doomed.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: got %v, want context.Canceled", err)
	}
	if st := q.Stats(); st.QueueDepth != 1 || st.Canceled != 1 {
		t.Fatalf("after cancel: %+v, want depth 1, canceled 1", st)
	}

	// A pre-cancelled caller that would have to wait never enqueues.
	// (With a free slot it WOULD be admitted, matching the old
	// semaphore: the operator itself reports the cancellation.)
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, err := q.Enqueue(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled enqueue: got %v, want context.Canceled", err)
	}

	release()
	rel, err := survivor.Wait(context.Background())
	if err != nil {
		t.Fatalf("survivor: %v", err)
	}
	rel()
}

// TestAdmissionShutdown checks shutdown kicks queued waiters with
// ErrShutdown, refuses new callers, and unblocks only when every
// admitted operation has released.
func TestAdmissionShutdown(t *testing.T) {
	q := New(Options{MaxActive: 1, MaxQueue: 4})
	release, err := q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := q.Enqueue(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	shutDone := make(chan error, 1)
	go func() { shutDone <- q.Shutdown(context.Background()) }()

	if _, err := tk.Wait(context.Background()); !errors.Is(err, ErrShutdown) {
		t.Fatalf("kicked waiter: got %v, want ErrShutdown", err)
	}
	if _, err := q.Enqueue(context.Background()); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown enqueue: got %v, want ErrShutdown", err)
	}

	select {
	case err := <-shutDone:
		t.Fatalf("shutdown returned %v with a slot still held", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := q.Stats(); st.Active != 0 || st.QueueDepth != 0 || !st.ShuttingDown || st.Kicked != 1 {
		t.Fatalf("after shutdown: %+v", st)
	}
	// Idempotent: a second shutdown of a drained queue returns at once.
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}

	// A shutdown bounded by a dead context reports the context error.
	q2 := New(Options{MaxActive: 1})
	rel2, err := q2.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q2.Shutdown(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded shutdown: got %v, want deadline exceeded", err)
	}
	rel2()
}

// TestAdmissionStateMachine drives the queue through
// healthy → degraded → saturated → healthy purely by queue depth and
// checks the hysteresis plus the idle reset. MaxQueue 5 puts the
// degrade depth at 2 and the saturate depth at 4.
func TestAdmissionStateMachine(t *testing.T) {
	q := New(Options{MaxActive: 1, MaxQueue: 5})
	if q.State() != Healthy {
		t.Fatalf("fresh queue state = %v", q.State())
	}
	release, err := q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := q.Enqueue(context.Background())
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if q.State() != Saturated {
		t.Fatalf("depth 4: state %v, want saturated", q.State())
	}

	// Cancel three waiters: depth 1 < the degrade depth recovers only
	// to degraded (saturated never skips straight to healthy).
	for _, tk := range tickets[1:] {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel waiter: %v", err)
		}
	}
	if q.State() != Degraded {
		t.Fatalf("depth 1: state %v, want degraded (hysteresis)", q.State())
	}

	// Fully idle resets to healthy even though the wait EWMA is warm.
	release()
	rel, err := tickets[0].Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if q.State() != Healthy {
		t.Fatalf("idle queue: state %v, want healthy", q.State())
	}
	if q.Stats().Transitions == 0 {
		t.Fatal("no state transitions counted")
	}
}

// TestAdmissionShape checks budget shaping: healthy passes through,
// degraded shrinks explicit budgets and caps unlimited ones.
func TestAdmissionShape(t *testing.T) {
	q := New(Options{MaxActive: 1, DegradedBudget: 7})
	lim, st := q.Shape(exec.Limits{Budget: 100, Workers: 3})
	if st != Healthy || lim.Budget != 100 || lim.Workers != 3 {
		t.Fatalf("healthy shape: %+v state %v", lim, st)
	}

	q.state = Degraded // forced: shaping policy is what's under test
	lim, st = q.Shape(exec.Limits{Budget: 100, Workers: 3})
	if st != Degraded || lim.Budget != 25 || lim.Workers != 3 {
		t.Fatalf("degraded shape of 100: %+v state %v", lim, st)
	}
	lim, _ = q.Shape(exec.Limits{Budget: 2})
	if lim.Budget != 1 {
		t.Fatalf("degraded shape of 2: budget %d, want floor 1", lim.Budget)
	}
	lim, _ = q.Shape(exec.Limits{})
	if lim.Budget != 7 {
		t.Fatalf("degraded shape of unlimited: budget %d, want DegradedBudget 7", lim.Budget)
	}

	q2 := New(Options{})
	q2.state = Saturated
	lim, _ = q2.Shape(exec.Limits{})
	if lim.Budget != 0 {
		t.Fatalf("no DegradedBudget configured: budget %d, want untouched 0", lim.Budget)
	}
}

// TestAdmissionDoubleRelease checks releasing a slot twice is
// harmless: the slot count never goes negative.
func TestAdmissionDoubleRelease(t *testing.T) {
	q := New(Options{MaxActive: 2})
	release, err := q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
	release()
	if st := q.Stats(); st.Active != 0 {
		t.Fatalf("after double release: active %d, want 0", st.Active)
	}
}

// TestAdmissionMetrics checks the obs registry wiring: admissions,
// rejections and waits land in the named series.
func TestAdmissionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	q := New(Options{MaxActive: 1, MaxQueue: 1, Metrics: reg})
	release, err := q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(context.Background()); err == nil {
		t.Fatal("second waiter admitted past MaxQueue=1")
	}
	if got := reg.Gauge("admission.queue_depth").Value(); got != 1 {
		t.Fatalf("queue_depth gauge = %d, want 1", got)
	}
	// Releasing hands the slot to the queued waiter: a second admission.
	release()
	if got := reg.Counter("admission.admitted").Value(); got != 2 {
		t.Fatalf("admitted counter = %d, want 2", got)
	}
	if got := reg.Counter("admission.rejected_overload").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if got := reg.Gauge("admission.queue_depth").Value(); got != 0 {
		t.Fatalf("queue_depth gauge after handoff = %d, want 0", got)
	}
	if got := reg.Histogram("admission.wait_s", obs.LatencyBounds).Count(); got != 2 {
		t.Fatalf("wait histogram count = %d, want 2", got)
	}
}

// TestAdmissionStateJSON pins the JSON form of the load state: strings
// not integers, because /healthz consumers read it.
func TestAdmissionStateJSON(t *testing.T) {
	for st, want := range map[State]string{
		Healthy: `"healthy"`, Degraded: `"degraded"`, Saturated: `"saturated"`,
	} {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Fatalf("state %d marshals to %s, want %s", int(st), b, want)
		}
	}
	b, err := json.Marshal(New(Options{}).Stats())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"state": "healthy"`) && !strings.Contains(string(b), `"state":"healthy"`) {
		t.Fatalf("stats JSON missing readable state: %s", b)
	}
}

// TestAdmissionExpectedWait checks wait estimates appear once the
// queue has hold-time history.
func TestAdmissionExpectedWait(t *testing.T) {
	q := New(Options{MaxActive: 1, MaxQueue: 8})
	// Prime the hold average with one measured hold.
	release, err := q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	release()

	release, err = q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	tk, err := q.Enqueue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tk.ExpectedWait() <= 0 {
		t.Fatalf("expected wait %v, want > 0 after hold history", tk.ExpectedWait())
	}
	if tk.State() != Healthy {
		t.Fatalf("ticket state %v", tk.State())
	}
}

package system

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gea/internal/admission"
	"gea/internal/core"
	"gea/internal/exec"
	"gea/internal/sage"
)

// Admission-control defaults; see Options.MaxConcurrent,
// Options.MaxQueue and Options.AdmitTimeout.
const (
	DefaultMaxConcurrent = admission.DefaultMaxActive
	DefaultMaxQueue      = admission.DefaultMaxQueue
	DefaultAdmitTimeout  = 10 * time.Second
)

// ErrBusy is returned when a heavy operation could not get an admission
// slot within the session's AdmitTimeout: MaxConcurrent other operations
// were still computing when the caller gave up. Distinct from
// *admission.ErrOverload, which rejects immediately because even the
// wait queue is full.
type ErrBusy struct {
	// Waited is how long the caller queued before giving up.
	Waited time.Duration
	// Position is the 1-based queue position the caller held.
	Position int
	// RetryAfter estimates when a retry might be admitted promptly.
	RetryAfter time.Duration
}

func (e *ErrBusy) Error() string {
	return fmt.Sprintf("system: busy: no admission slot after %v", e.Waited)
}

// initAdmission builds the admission queue from the session options;
// zero fields select the defaults. Called from New and LoadSessionFS (a
// loaded session gets the defaults — admission settings are runtime
// policy, not session state).
func (s *System) initAdmission(opts Options) {
	maxActive := opts.MaxConcurrent
	if maxActive <= 0 {
		maxActive = DefaultMaxConcurrent
	}
	maxQueue := opts.MaxQueue
	if maxQueue <= 0 {
		maxQueue = DefaultMaxQueue
	}
	admitTimeout := opts.AdmitTimeout
	if admitTimeout <= 0 {
		admitTimeout = DefaultAdmitTimeout
	}
	s.queue = admission.New(admission.Options{
		MaxActive:      maxActive,
		MaxQueue:       maxQueue,
		AdmitTimeout:   admitTimeout,
		DegradedBudget: opts.DegradedBudget,
		Metrics:        opts.AdmissionMetrics,
	})
}

// acquire takes an admission slot through the bounded FIFO queue,
// waiting until one frees, the context dies, the admission timeout
// elapses (*ErrBusy), the queue is full (*admission.ErrOverload,
// immediate) or shutdown kicks the waiter. It returns the release
// function on success.
func (s *System) acquire(ctx context.Context) (func(), error) {
	release, err := s.queue.Acquire(ctx)
	if err != nil {
		var to *admission.ErrTimeout
		if errors.As(err, &to) {
			return nil, &ErrBusy{Waited: to.Waited, Position: to.Position, RetryAfter: to.RetryAfter}
		}
		return nil, err
	}
	return release, nil
}

// Shutdown drains the session for a graceful stop: queued admission
// waiters are kicked with admission.ErrShutdown, new governed calls are
// refused, and the call blocks until every in-flight operation releases
// its slot or ctx dies. In-flight operations are not cancelled here —
// cancel their contexts to hurry them. Idempotent.
func (s *System) Shutdown(ctx context.Context) error {
	return s.queue.Shutdown(ctx)
}

// AdmissionState reports the queue's load-shedding state.
func (s *System) AdmissionState() admission.State {
	return s.queue.State()
}

// AdmissionStats snapshots the admission queue for health surfaces.
func (s *System) AdmissionStats() admission.Stats {
	return s.queue.Stats()
}

// ShapeLimits applies the session's worker default and the admission
// queue's load-shedding policy to a request's limits, reporting the
// state that applied: under Degraded or Saturated the budget shrinks so
// the request returns a flagged partial instead of holding a slot until
// it times out.
func (s *System) ShapeLimits(lim exec.Limits) (exec.Limits, admission.State) {
	return s.queue.Shape(s.limits(lim))
}

// limits applies the session's worker default to a caller's Limits: an
// explicit Workers setting wins, otherwise Options.Workers fills it in.
// The budget and cadence pass through untouched.
func (s *System) limits(lim exec.Limits) exec.Limits {
	if lim.Workers == 0 {
		lim.Workers = s.workers
	}
	return lim
}

// background builds the unbudgeted Ctl the legacy (non-Ctx) methods run
// under, carrying the session's worker default so they too evaluate
// through the sharded substrate.
func (s *System) background() *exec.Ctl {
	return exec.New(context.Background(), exec.Limits{Workers: s.workers})
}

// CalculateFasciclesCtx is CalculateFascicles under execution governance:
// the call queues for an admission slot, the mining observes ctx
// cancellation and the work budget in lim, a budget stop registers the
// fascicles found so far (trace flagged partial, lineage annotated), and
// panics surface as structured *exec.ExecErrors.
func (s *System) CalculateFasciclesCtx(ctx context.Context, datasetName string, opts FascicleOptions, lim exec.Limits) ([]string, exec.Trace, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, exec.Trace{}, err
	}
	defer release()
	c := exec.New(ctx, s.limits(lim))
	names, _, partial, err := s.calculateFascicles(c, datasetName, opts)
	if err != nil {
		names = nil
	}
	s.attachRuns(c, names...)
	return names, c.Snapshot(partial), err
}

// attachRuns links the invocation's completed run record (if a collector
// was installed on the context) to the lineage nodes it produced, so
// provenance and performance live on one tree. Best-effort: a node that
// vanished in a concurrent delete just drops the record.
func (s *System) attachRuns(c *exec.Ctl, names ...string) {
	rec := c.RunRecord()
	if rec == nil {
		return
	}
	//lint:gea ctlcharge -- O(results) lineage bookkeeping after the metered run has already ended; the Ctl is only read for its record
	for _, n := range names {
		if n == "" {
			continue
		}
		_ = s.Lineage.AttachRun(n, rec)
	}
}

// FindPureFascicleCtx is FindPureFascicle under execution governance,
// mining with alg. Use the greedy single-pass miner for full-scale corpora
// (tens of thousands of tags): the exact lattice's candidate frontier
// grows combinatorially there, which is exactly why the original system
// ran the [JMN99] single-pass algorithm. One admission slot and one work
// budget span the entire strict-to-loose threshold scan. A search yields a
// single name, so budget exhaustion before success is an error
// (satisfying errors.Is(err, exec.ErrBudget)) rather than a partial
// result.
func (s *System) FindPureFascicleCtx(ctx context.Context, datasetName string, prop sage.Property, minSize int, alg core.Algorithm, lim exec.Limits) (string, exec.Trace, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return "", exec.Trace{}, err
	}
	defer release()
	c := exec.New(ctx, s.limits(lim))
	name, partial, err := s.findPureFascicle(c, datasetName, prop, minSize, alg)
	if err != nil {
		name = ""
	}
	s.attachRuns(c, name)
	return name, c.Snapshot(partial), err
}

// CreateGapCtx is CreateGap under execution governance: the diff queues
// for an admission slot, observes cancellation and the work budget, and a
// budget stop registers the rows diffed so far (trace flagged partial,
// lineage annotated).
func (s *System) CreateGapCtx(ctx context.Context, name, sumy1, sumy2 string, lim exec.Limits) (*core.Gap, exec.Trace, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, exec.Trace{}, err
	}
	defer release()
	c := exec.New(ctx, s.limits(lim))
	g, partial, err := s.createGap(c, name, sumy1, sumy2)
	if err != nil {
		g = nil
	}
	s.attachRuns(c, name)
	return g, c.Snapshot(partial), err
}

package gea

import (
	"context"

	"gea/internal/admission"
	"gea/internal/exec"
	"gea/internal/fascicle"
	"gea/internal/system"
)

// Execution governance (internal/exec). Every long-running operator takes
// the *Ctl that meters it: Background() runs it unbounded, and Run bounds
// it by a context.Context and ExecLimits. The computation polls
// cancellation and deadlines at checkpoints, a work budget degrades to an
// explicitly flagged partial result (ExecTrace.Partial), and panics are
// recovered into structured *ExecError values instead of crashing the
// session.
type (
	// Ctl meters one operator run: its checkpoints, work budget,
	// cancellation and worker count.
	Ctl = exec.Ctl
	// ExecLimits bound a single operator call: Budget caps total work
	// units (0 = unlimited), CheckEvery sets the checkpoint cadence, and
	// Workers sets the intra-operator worker count for sharded scans
	// (<= 0 means 1; results are bit-identical at any setting, including
	// the partial prefix produced by a budget stop).
	ExecLimits = exec.Limits
	// ExecTrace reports what a governed call did: units charged,
	// checkpoints passed, and whether the result is partial.
	ExecTrace = exec.Trace
	// ExecHook observes checkpoints; install with WithExecHook for
	// deterministic fault injection (the execwalk test driver).
	ExecHook = exec.Hook
	// FascicleParamError is a typed mining-parameter rejection.
	FascicleParamError = fascicle.ParamError
	// ErrBusy reports that a System operation gave up waiting for an
	// admission slot.
	ErrBusy = system.ErrBusy
	// ErrOverload reports that a System operation was rejected
	// immediately because the admission queue was full; it carries
	// retry-after advice.
	ErrOverload = admission.ErrOverload
	// AdmissionStats is the point-in-time admission queue snapshot
	// System.AdmissionStats returns, JSON-ready for health endpoints.
	AdmissionStats = admission.Stats
)

var (
	// IsCancellation reports whether an error is a context cancellation
	// or deadline expiry; IsBudget reports budget exhaustion (a budget
	// stop on a collection-valued operator is NOT an error — the
	// partial result is returned flagged; only a search with no
	// partial value, such as FindPureFascicleCtx, fails with one).
	IsCancellation = exec.IsCancellation
	IsBudget       = exec.IsBudget
	// WithExecHook returns a context whose governed operators call the
	// hook at every checkpoint.
	WithExecHook = exec.WithHook
	// Background returns an unbounded Ctl for a one-off operator call.
	Background = exec.Background
	// ErrShuttingDown is returned by governed System operations — and
	// handed to kicked admission waiters — once System.Shutdown begins.
	ErrShuttingDown = admission.ErrShutdown
)

// Run invokes one operator under execution governance: it meters fn
// with a Ctl built from ctx and lim, recovers a panic into an *ExecError
// naming op and node, and returns the value with its ExecTrace. On an
// error the value is the zero R; on a budget stop it is fn's flagged
// partial value with ExecTrace.Partial set. See exec.Run.
func Run[R any](ctx context.Context, lim ExecLimits, op, node string, fn func(*Ctl) (R, bool, error)) (R, ExecTrace, error) {
	return exec.Run(ctx, lim, op, node, fn)
}

// Admission-control defaults of a System session.
const (
	DefaultMaxConcurrent = system.DefaultMaxConcurrent
	DefaultMaxQueue      = system.DefaultMaxQueue
)

// Admission load states, re-exported for matching against
// System.AdmissionState and the state ShapeLimits reports.
const (
	AdmissionHealthy   = admission.Healthy
	AdmissionDegraded  = admission.Degraded
	AdmissionSaturated = admission.Saturated
)

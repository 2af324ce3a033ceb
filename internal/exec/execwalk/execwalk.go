// Package execwalk is the deterministic checkpoint-walk test driver for
// the exec governance layer — the compute-side sibling of PR 1's iofault
// crash walks. Given a Target adapter around one context-accepting
// operator, Walk first runs it unconstrained to count its checkpoints
// and work units, then replays it many times, each replay stopping the
// operator at a chosen point:
//
//   - cancel at the Nth checkpoint → the operator must return a
//     cancellation error within one checkpoint interval (plus Slack);
//   - pre-expired deadline → immediate deadline error at the very first
//     checkpoint;
//   - budget of B < total units → a nil error with Trace.Partial set
//     and strictly less work than the full run — flagged, not silent;
//   - panic injected at the Nth checkpoint → a structured *ExecError
//     carrying the operator name and the recovered value.
//
// Hooks make every stop deterministic: no timers, no goroutines, no
// flakes — the walk is a pure function of the operator's loop shape.
package execwalk

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gea/internal/exec"
)

// Target adapts one operator to the walk driver.
type Target struct {
	// Name labels subtests.
	Name string
	// Run invokes the operator with the given context and limits and
	// returns its trace and error. The closure must rebuild any
	// mutable inputs (e.g. a rand source) on every call so replays are
	// identical.
	Run func(ctx context.Context, lim exec.Limits) (exec.Trace, error)
	// MaxProbes caps how many cancel/budget/panic positions are probed
	// (stride-sampled across the full run). 0 means 32.
	MaxProbes int
	// Slack is how many checkpoints past the stop an operator may
	// still touch while unwinding (composite operators poll the sticky
	// stop once per stage). 0 means 2.
	Slack int64
	// MaxUnitStep is the largest single Point(n) charge the operator
	// makes; a budget stop may overshoot by at most this many units.
	// 0 means 64.
	MaxUnitStep int64
}

func (tg Target) probes() int {
	if tg.MaxProbes <= 0 {
		return 32
	}
	return tg.MaxProbes
}

func (tg Target) slack() int64 {
	if tg.Slack <= 0 {
		return 2
	}
	return tg.Slack
}

func (tg Target) unitStep() int64 {
	if tg.MaxUnitStep <= 0 {
		return 64
	}
	return tg.MaxUnitStep
}

// sample returns up to n probe positions in [1, max], always including
// 1 and max, evenly strided.
func sample(max int64, n int) []int64 {
	if max <= 0 {
		return nil
	}
	if int64(n) >= max {
		out := make([]int64, 0, max)
		for i := int64(1); i <= max; i++ {
			out = append(out, i)
		}
		return out
	}
	out := make([]int64, 0, n)
	stride := max / int64(n)
	for k := int64(1); k <= max; k += stride {
		out = append(out, k)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// validateBaseline vets the unconstrained run: a walkable operator must
// complete cleanly, charge work, and poll at least one checkpoint — a
// zero-work or checkpoint-free operator is ungovernable and the walk
// would vacuously pass against it.
func validateBaseline(base exec.Trace, totalChecks int64) error {
	if base.Partial {
		//lint:gea errwrap -- harness diagnostic about an operator's shape; no governance sentinel exists to wrap
		return errors.New("baseline run flagged partial without any budget")
	}
	if totalChecks == 0 || base.Checkpoints == 0 {
		//lint:gea errwrap -- harness diagnostic about an operator's shape; no governance sentinel exists to wrap
		return errors.New("operator ran without a single checkpoint — it is not cancellable")
	}
	if base.Units <= 0 {
		return errors.New("operator charged no work units")
	}
	return nil
}

// Walk drives the full deterministic suite against one operator.
func Walk(t *testing.T, tg Target) {
	t.Helper()

	// Baseline: unconstrained run must complete cleanly and checkpoint.
	var totalChecks int64
	ctx := exec.WithHook(context.Background(), func(nth int64) { totalChecks = nth })
	base, err := tg.Run(ctx, exec.Limits{})
	if err != nil {
		t.Fatalf("%s: baseline run failed: %v", tg.Name, err)
	}
	if err := validateBaseline(base, totalChecks); err != nil {
		t.Fatalf("%s: %v", tg.Name, err)
	}

	t.Run(tg.Name+"/deadline-pre-expired", func(t *testing.T) {
		var seen int64
		dctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
		defer cancel()
		dctx = exec.WithHook(dctx, func(nth int64) { seen = nth })
		_, err := tg.Run(dctx, exec.Limits{})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expired deadline: got %v, want DeadlineExceeded", err)
		}
		if seen > tg.slack() {
			t.Fatalf("operator ran %d checkpoints past an already-expired deadline", seen)
		}
		var ee *exec.ExecError
		if !errors.As(err, &ee) || ee.Op == "" {
			t.Fatalf("deadline error not a structured ExecError with operator name: %v", err)
		}
	})

	t.Run(tg.Name+"/cancel-walk", func(t *testing.T) {
		for _, k := range sample(totalChecks, tg.probes()) {
			var seen int64
			cctx, cancel := context.WithCancel(context.Background())
			cctx = exec.WithHook(cctx, func(nth int64) {
				seen = nth
				if nth == k {
					cancel()
				}
			})
			_, err := tg.Run(cctx, exec.Limits{})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel at checkpoint %d/%d: got %v, want Canceled", k, totalChecks, err)
			}
			if seen > k+tg.slack() {
				t.Fatalf("cancel at checkpoint %d: operator ran to checkpoint %d (slack %d)",
					k, seen, tg.slack())
			}
		}
	})

	t.Run(tg.Name+"/budget-walk", func(t *testing.T) {
		if base.Units < 2 {
			t.Skipf("only %d work units; nothing to truncate", base.Units)
		}
		for _, b := range sample(base.Units-1, tg.probes()) {
			tr, err := tg.Run(context.Background(), exec.Limits{Budget: b})
			if err != nil {
				t.Fatalf("budget %d/%d: unexpected error %v", b, base.Units, err)
			}
			if !tr.Partial {
				t.Fatalf("budget %d/%d: truncated run not flagged partial", b, base.Units)
			}
			if tr.Units > b+tg.unitStep() {
				t.Fatalf("budget %d: operator charged %d units (max step %d)",
					b, tr.Units, tg.unitStep())
			}
		}
		// A budget at least as large as the full run must not truncate.
		tr, err := tg.Run(context.Background(), exec.Limits{Budget: base.Units + tg.unitStep()})
		if err != nil {
			t.Fatalf("ample budget: %v", err)
		}
		if tr.Partial {
			t.Fatalf("ample budget %d for %d units still flagged partial", base.Units+tg.unitStep(), base.Units)
		}
	})

	t.Run(tg.Name+"/panic-walk", func(t *testing.T) {
		type boom struct{ at int64 }
		for _, k := range sample(totalChecks, tg.probes()) {
			pctx := exec.WithHook(context.Background(), func(nth int64) {
				if nth == k {
					panic(boom{at: k})
				}
			})
			_, err := tg.Run(pctx, exec.Limits{})
			var ee *exec.ExecError
			if !errors.As(err, &ee) {
				t.Fatalf("panic at checkpoint %d: got %v (%T), want *exec.ExecError", k, err, err)
			}
			if ee.Op == "" {
				t.Fatalf("panic at checkpoint %d: ExecError missing operator name", k)
			}
			bv, ok := ee.PanicValue.(boom)
			if !ok || bv.at != k {
				t.Fatalf("panic at checkpoint %d: PanicValue = %#v", k, ee.PanicValue)
			}
		}
	})

	t.Run(tg.Name+"/coarse-cadence", func(t *testing.T) {
		// A coarser poll cadence must still observe cancellation. Pick a
		// cadence the operator's total work can actually reach.
		cadence := base.Units / 4
		if cadence < 2 {
			cadence = 2
		}
		if base.Units < 2*cadence {
			t.Skipf("only %d work units; no room for a coarser cadence", base.Units)
		}
		var seen int64
		cctx, cancel := context.WithCancel(context.Background())
		cctx = exec.WithHook(cctx, func(nth int64) {
			seen = nth
			if nth == 1 {
				cancel()
			}
		})
		_, err := tg.Run(cctx, exec.Limits{CheckEvery: cadence})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cadence %d: got %v, want Canceled", cadence, err)
		}
		if seen > 1+tg.slack() {
			t.Fatalf("cadence %d: ran to checkpoint %d after cancel at 1", cadence, seen)
		}
	})
}

// ShardedTarget adapts one sharded operator to WalkSharded. Where
// Target probes a sequential loop, ShardedTarget probes the same loop
// at several worker counts and asserts the shard substrate's promise:
// the rows an operator returns are bit-identical at any worker count,
// including the flagged partial prefix left by a budget stop.
type ShardedTarget struct {
	// Name labels subtests.
	Name string
	// Run invokes the operator at the given worker count and returns a
	// canonical row-per-item rendering of its result (so "bit-identical"
	// is a string comparison), plus the trace and error. The closure
	// must rebuild any mutable inputs on every call.
	Run func(ctx context.Context, workers int, lim exec.Limits) (rows []string, tr exec.Trace, err error)
	// Workers are the counts probed. Empty means {1, 2, 8}.
	Workers []int
	// MaxProbes caps the budget/cancel positions probed. 0 means 16.
	MaxProbes int
	// Slack is the per-worker checkpoint slack after a cancellation
	// (each in-flight shard may poll once more while unwinding).
	// 0 means 2.
	Slack int64
}

func (tg ShardedTarget) workers() []int {
	if len(tg.Workers) == 0 {
		return []int{1, 2, 8}
	}
	return tg.Workers
}

func (tg ShardedTarget) probes() int {
	if tg.MaxProbes <= 0 {
		return 16
	}
	return tg.MaxProbes
}

func (tg ShardedTarget) slack() int64 {
	if tg.Slack <= 0 {
		return 2
	}
	return tg.Slack
}

func sameRows(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("row %d differs:\n  %q\n  %q", i, a[i], b[i])
		}
	}
	return nil
}

// WalkSharded drives the sharded-equivalence suite against one
// operator: identical full results at every worker count, identical
// flagged partial prefixes under a walked budget, and cancellation
// observed promptly by every worker.
func WalkSharded(t *testing.T, tg ShardedTarget) {
	t.Helper()

	workers := tg.workers()
	base, baseTr, err := tg.Run(context.Background(), 1, exec.Limits{})
	if err != nil {
		t.Fatalf("%s: baseline run failed: %v", tg.Name, err)
	}
	if baseTr.Partial {
		t.Fatalf("%s: baseline run flagged partial without any budget", tg.Name)
	}
	if baseTr.Units <= 0 {
		t.Fatalf("%s: operator charged no work units", tg.Name)
	}

	t.Run(tg.Name+"/equivalence", func(t *testing.T) {
		for _, w := range workers {
			rows, tr, err := tg.Run(context.Background(), w, exec.Limits{})
			if err != nil {
				t.Fatalf("workers %d: %v", w, err)
			}
			if tr.Partial {
				t.Fatalf("workers %d: unbudgeted run flagged partial", w)
			}
			if err := sameRows(base, rows); err != nil {
				t.Fatalf("workers %d: result differs from workers 1: %v", w, err)
			}
			if tr.Units != baseTr.Units {
				t.Fatalf("workers %d: charged %d units, workers 1 charged %d", w, tr.Units, baseTr.Units)
			}
		}
	})

	t.Run(tg.Name+"/budget-walk", func(t *testing.T) {
		if baseTr.Units < 2 {
			t.Skipf("only %d work units; nothing to truncate", baseTr.Units)
		}
		for _, b := range sample(baseTr.Units-1, tg.probes()) {
			var want []string
			for _, w := range workers {
				rows, tr, err := tg.Run(context.Background(), w, exec.Limits{Budget: b})
				if err != nil {
					t.Fatalf("budget %d workers %d: %v", b, w, err)
				}
				if !tr.Partial {
					t.Fatalf("budget %d workers %d: truncated run not flagged partial", b, w)
				}
				if tr.Units > b {
					t.Fatalf("budget %d workers %d: charged %d units", b, w, tr.Units)
				}
				if len(rows) >= len(base) {
					t.Fatalf("budget %d workers %d: partial result has %d rows, full run %d",
						b, w, len(rows), len(base))
				}
				if err := sameRows(base[:len(rows)], rows); err != nil {
					t.Fatalf("budget %d workers %d: partial result is not a prefix of the full result: %v", b, w, err)
				}
				if want == nil {
					want = rows
				} else if err := sameRows(want, rows); err != nil {
					t.Fatalf("budget %d: workers %d prefix differs from workers %d: %v",
						b, w, workers[0], err)
				}
			}
		}
	})

	t.Run(tg.Name+"/cancel-walk", func(t *testing.T) {
		totalChecks := baseTr.Checkpoints
		for _, w := range workers {
			for _, k := range sample(totalChecks, tg.probes()) {
				// One mutex spans the whole hook body, so cancel() has
				// closed Done before any other worker's checkpoint gets
				// past its hook: a worker racing the cancel cannot keep
				// passing checkpoints that count against the bound.
				var (
					mu    sync.Mutex
					seen  int64
					fired bool
				)
				cctx, cancel := context.WithCancel(context.Background())
				cctx = exec.WithHook(cctx, func(nth int64) {
					mu.Lock()
					defer mu.Unlock()
					seen = max(seen, nth)
					if nth >= k && !fired {
						fired = true
						cancel()
					}
				})
				_, _, err := tg.Run(cctx, w, exec.Limits{})
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers %d cancel at checkpoint %d/%d: got %v, want Canceled",
						w, k, totalChecks, err)
				}
				// Every in-flight worker may take one more checkpoint
				// (plus the operator's own unwind slack) before it
				// observes the stop.
				bound := k + int64(w)*(tg.slack()+1)
				mu.Lock()
				got := seen
				mu.Unlock()
				if got > bound {
					t.Fatalf("workers %d cancel at checkpoint %d: ran to checkpoint %d (bound %d)",
						w, k, got, bound)
				}
			}
		}
	})
}

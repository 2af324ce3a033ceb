package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestPointUnlimited(t *testing.T) {
	c := Background()
	for i := 0; i < 1000; i++ {
		if err := c.Point(1); err != nil {
			t.Fatalf("unbounded Ctl stopped at unit %d: %v", i, err)
		}
	}
	tr := c.Snapshot(false)
	if tr.Units != 1000 || tr.Checkpoints != 1000 {
		t.Fatalf("trace = %+v, want 1000 units / 1000 checkpoints", tr)
	}
	if tr.Partial || tr.Reason != "" {
		t.Fatalf("clean run has partial/reason set: %+v", tr)
	}
}

func TestPointBudget(t *testing.T) {
	c := New(context.Background(), Limits{Budget: 10})
	var err error
	n := 0
	for ; n < 100; n++ {
		if err = c.Point(1); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBudget) || !IsBudget(err) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
	if n != 9 { // charge-then-check: the 10th charge trips the cap
		t.Fatalf("stopped after %d charges, want 9 (10th trips)", n)
	}
	if !c.Exhausted() {
		t.Error("Exhausted() = false after budget stop")
	}
	// Sticky: later points keep refusing.
	if err := c.Point(1); !errors.Is(err, ErrBudget) {
		t.Fatalf("post-stop Point = %v, want ErrBudget", err)
	}
	if tr := c.Snapshot(true); !tr.Partial || !strings.Contains(tr.Reason, "budget") {
		t.Fatalf("trace = %+v", tr)
	}
}

func TestPointCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, Limits{})
	if err := c.Point(1); err != nil {
		t.Fatalf("pre-cancel: %v", err)
	}
	cancel()
	err := c.Point(1)
	if !errors.Is(err, context.Canceled) || !IsCancellation(err) {
		t.Fatalf("got %v, want Canceled", err)
	}
	if c.Exhausted() {
		t.Error("cancellation must not report budget exhaustion")
	}
}

func TestPointDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	c := New(ctx, Limits{})
	if err := c.Point(1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
}

func TestCheckEveryCadence(t *testing.T) {
	var polls int64
	ctx := WithHook(context.Background(), func(nth int64) { polls = nth })
	c := New(ctx, Limits{CheckEvery: 10})
	for i := 0; i < 95; i++ {
		if err := c.Point(1); err != nil {
			t.Fatal(err)
		}
	}
	if polls != 9 {
		t.Fatalf("95 units at cadence 10 ran %d polls, want 9", polls)
	}
}

func TestNilCtlIsInert(t *testing.T) {
	var c *Ctl
	if err := c.Point(5); err != nil {
		t.Fatal(err)
	}
	if c.Exhausted() || c.Err() != nil || c.Units() != 0 {
		t.Fatal("nil Ctl leaked state")
	}
}

func TestGuardRecoversPanic(t *testing.T) {
	err := Guard("core.Populate", "brainENUM", func() error {
		panic("index out of range")
	})
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("got %T, want *ExecError", err)
	}
	if ee.Op != "core.Populate" || ee.Node != "brainENUM" {
		t.Fatalf("ExecError = %+v", ee)
	}
	if ee.PanicValue != "index out of range" || len(ee.Stack) == 0 {
		t.Fatalf("panic details missing: %+v", ee)
	}
	for _, want := range []string{"core.Populate", "brainENUM", "index out of range"} {
		if !strings.Contains(ee.Error(), want) {
			t.Errorf("Error() = %q missing %q", ee.Error(), want)
		}
	}
}

func TestGuardWrapsCancellation(t *testing.T) {
	err := Guard("cluster.KMeans", "", func() error {
		return fmt.Errorf("stopped: %w", context.Canceled)
	})
	var ee *ExecError
	if !errors.As(err, &ee) || ee.Op != "cluster.KMeans" {
		t.Fatalf("got %v, want ExecError for cluster.KMeans", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("wrapping lost errors.Is(Canceled)")
	}
}

func TestGuardDoesNotDoubleWrap(t *testing.T) {
	inner := &ExecError{Op: "fascicle.Lattice", Err: context.Canceled}
	err := Guard("system.CalculateFascicles", "brain5k", func() error { return inner })
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatal("lost ExecError")
	}
	if ee != inner {
		t.Fatalf("nested cancellation re-wrapped: %v", err)
	}
}

func TestGuardPassesOrdinaryErrors(t *testing.T) {
	sentinel := errors.New("no such dataset")
	if err := Guard("op", "", func() error { return sentinel }); err != sentinel {
		t.Fatalf("ordinary error rewritten: %v", err)
	}
	if err := Guard("op", "", func() error { return nil }); err != nil {
		t.Fatalf("clean run errored: %v", err)
	}
}

func TestHookRunsBeforePoll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = WithHook(ctx, func(nth int64) {
		if nth == 3 {
			cancel()
		}
	})
	c := New(ctx, Limits{})
	var err error
	n := 0
	for ; n < 10; n++ {
		if err = c.Point(1); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	if n != 2 { // hook fires during the 3rd Point, which returns the error
		t.Fatalf("cancel at checkpoint 3 observed after %d clean points, want 2", n)
	}
}

// TestRun pins the governed-call contract every operator gets by
// wrapping its metered form in Run.
func TestRun(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("boom")
	charge := func(n int) func(*Ctl) (int, bool, error) {
		return func(c *Ctl) (int, bool, error) {
			for i := 0; i < n; i++ {
				if err := c.Point(1); err != nil {
					if IsBudget(err) {
						return i, true, nil
					}
					return i, false, err
				}
			}
			return n, false, nil
		}
	}
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		lim   Limits
		fn    func(*Ctl) (int, bool, error)
		check func(t *testing.T, v int, tr Trace, err error)
	}{
		{"value and trace pass through", context.Background(), Limits{}, charge(3),
			func(t *testing.T, v int, tr Trace, err error) {
				if err != nil || v != 3 {
					t.Fatalf("got (%d, %v), want (3, nil)", v, err)
				}
				if tr != (Trace{Units: 3, Checkpoints: 3}) {
					t.Fatalf("trace = %+v, want 3 units / 3 checkpoints, not partial", tr)
				}
			}},
		{"value zeroed on error", context.Background(), Limits{}, func(c *Ctl) (int, bool, error) {
			_ = c.Point(1)
			return 7, false, boom
		}, func(t *testing.T, v int, tr Trace, err error) {
			var ee *ExecError
			if !errors.Is(err, boom) || errors.As(err, &ee) {
				t.Fatalf("err = %v, want the operator's own error, unwrapped", err)
			}
			if v != 0 || tr.Units != 1 {
				t.Fatalf("got value %d with trace %+v, want 0 with 1 unit", v, tr)
			}
		}},
		{"panic becomes ExecError", context.Background(), Limits{}, func(c *Ctl) (int, bool, error) {
			panic("kaboom")
		}, func(t *testing.T, v int, tr Trace, err error) {
			var ee *ExecError
			if !errors.As(err, &ee) || ee.Op != "op.Run" || ee.Node != "node" || ee.PanicValue != "kaboom" {
				t.Fatalf("err = %#v, want *ExecError{op.Run, node, kaboom}", err)
			}
			if v != 0 {
				t.Fatalf("value %d survived a panic", v)
			}
		}},
		{"cancellation wrapped once", canceled, Limits{}, charge(5),
			func(t *testing.T, v int, tr Trace, err error) {
				var ee *ExecError
				if !errors.Is(err, context.Canceled) || !errors.As(err, &ee) || ee.Op != "op.Run" || ee.Node != "node" {
					t.Fatalf("err = %v, want context.Canceled inside *ExecError{op.Run, node}", err)
				}
				if errors.As(ee.Err, new(*ExecError)) {
					t.Fatalf("cancellation wrapped twice: %v", err)
				}
				if v != 0 || tr.Partial || tr.Reason != context.Canceled.Error() {
					t.Fatalf("got value %d with trace %+v, want 0, not partial, reason %q", v, tr, context.Canceled)
				}
			}},
		{"nested ExecError not wrapped again", context.Background(), Limits{}, func(c *Ctl) (int, bool, error) {
			return 1, false, &ExecError{Op: "inner.Op", Err: context.DeadlineExceeded}
		}, func(t *testing.T, v int, tr Trace, err error) {
			var ee *ExecError
			if !errors.As(err, &ee) || ee.Op != "inner.Op" || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want the nested *ExecError unchanged", err)
			}
		}},
		{"budget stop returns flagged partial", context.Background(), Limits{Budget: 2}, charge(10),
			func(t *testing.T, v int, tr Trace, err error) {
				if err != nil || v != 1 {
					t.Fatalf("got (%d, %v), want the 1-unit prefix with a nil error", v, err)
				}
				if !tr.Partial || tr.Units != 2 || !strings.Contains(tr.Reason, "budget") {
					t.Fatalf("trace = %+v, want partial after 2 units, reason budget", tr)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, tr, err := Run(tc.ctx, tc.lim, "op.Run", "node", tc.fn)
			tc.check(t, v, tr, err)
		})
	}
}

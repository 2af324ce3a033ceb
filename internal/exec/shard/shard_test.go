package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"gea/internal/exec"
)

// squareKernel fills out[i] = i*i for its range, charging 1 unit/item.
func squareKernel(out []int) Kernel {
	return func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for i := lo; i < hi; i++ {
			if err := c.Point(1); err != nil {
				return i - lo, err
			}
			out[i] = i * i
		}
		return hi - lo, nil
	}
}

func TestForCompletesAtAnyWorkerCount(t *testing.T) {
	const work = 1000
	for _, workers := range []int{1, 2, 3, 8, 32} {
		c := exec.New(context.Background(), exec.Limits{Workers: workers})
		out := make([]int, work)
		prefix, partial, err := For(c, work, 7, squareKernel(out))
		if err != nil || partial || prefix != work {
			t.Fatalf("workers %d: (%d, %v, %v), want (%d, false, nil)", workers, prefix, partial, err, work)
		}
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("workers %d: out[%d] = %d", workers, i, out[i])
			}
		}
		if c.Units() != work {
			t.Fatalf("workers %d: charged %d units, want %d", workers, c.Units(), work)
		}
	}
}

func TestForBudgetPrefixIsIdenticalAcrossWorkerCounts(t *testing.T) {
	const work = 500
	for _, budget := range []int64{1, 2, 13, 100, 250, 499, 500} {
		var wantPrefix = -1
		for _, workers := range []int{1, 2, 8} {
			c := exec.New(context.Background(), exec.Limits{Budget: budget, Workers: workers})
			out := make([]int, work)
			prefix, partial, err := For(c, work, 32, squareKernel(out))
			if err != nil {
				t.Fatalf("budget %d workers %d: %v", budget, workers, err)
			}
			if !partial {
				t.Fatalf("budget %d workers %d: truncated run not flagged partial", budget, workers)
			}
			if wantPrefix == -1 {
				wantPrefix = prefix
			} else if prefix != wantPrefix {
				t.Fatalf("budget %d: prefix %d at %d workers, %d at 1 worker", budget, prefix, workers, wantPrefix)
			}
			if int64(prefix) >= budget {
				t.Fatalf("budget %d: prefix %d not a strict truncation", budget, prefix)
			}
			for i := 0; i < prefix; i++ {
				if out[i] != i*i {
					t.Fatalf("budget %d workers %d: prefix row %d not computed", budget, workers, i)
				}
			}
			if c.Units() > budget {
				t.Fatalf("budget %d workers %d: charged %d units", budget, workers, c.Units())
			}
			if !c.Exhausted() {
				t.Fatalf("budget %d workers %d: parent not exhausted after For", budget, workers)
			}
		}
	}
}

func TestForAmpleBudgetIsNotPartial(t *testing.T) {
	for _, workers := range []int{1, 8} {
		c := exec.New(context.Background(), exec.Limits{Budget: 501, Workers: workers})
		out := make([]int, 500)
		prefix, partial, err := For(c, 500, 0, squareKernel(out))
		if err != nil || partial || prefix != 500 {
			t.Fatalf("workers %d: ample budget gave (%d, %v, %v)", workers, prefix, partial, err)
		}
	}
}

func TestForCancellationReachesEveryWorker(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Bool
		ctx = exec.WithHook(ctx, func(nth int64) {
			if nth == 40 && fired.CompareAndSwap(false, true) {
				cancel()
			}
		})
		c := exec.New(ctx, exec.Limits{Workers: workers})
		out := make([]int, 2000)
		_, _, err := For(c, 2000, 50, squareKernel(out))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want Canceled", workers, err)
		}
		if !errors.Is(c.Err(), context.Canceled) {
			t.Fatalf("workers %d: parent Err = %v after merge", workers, c.Err())
		}
	}
}

func TestForPropagatesKernelError(t *testing.T) {
	boom := errors.New("bad row")
	for _, workers := range []int{1, 8} {
		c := exec.New(context.Background(), exec.Limits{Workers: workers})
		_, _, err := For(c, 100, 10, func(c *exec.Ctl, _, lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				if err := c.Point(1); err != nil {
					return i - lo, err
				}
				if i == 57 {
					return i - lo, fmt.Errorf("row %d: %w", i, boom)
				}
			}
			return hi - lo, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers %d: err = %v, want wrapped boom", workers, err)
		}
	}
}

func TestForRepanicsOnCallerGoroutine(t *testing.T) {
	type boom struct{ at int }
	for _, workers := range []int{1, 8} {
		c := exec.New(context.Background(), exec.Limits{Workers: workers})
		err := exec.Guard("shard.test", "", func() error {
			_, _, err := For(c, 100, 10, func(c *exec.Ctl, _, lo, hi int) (int, error) {
				for i := lo; i < hi; i++ {
					if err := c.Point(1); err != nil {
						return i - lo, err
					}
					if i == 42 {
						panic(boom{at: i})
					}
				}
				return hi - lo, nil
			})
			return err
		})
		var ee *exec.ExecError
		if !errors.As(err, &ee) {
			t.Fatalf("workers %d: err = %v (%T), want *exec.ExecError", workers, err, err)
		}
		if bv, ok := ee.PanicValue.(boom); !ok || bv.at != 42 {
			t.Fatalf("workers %d: PanicValue = %#v", workers, ee.PanicValue)
		}
	}
}

func TestForOnStoppedOrInertCtl(t *testing.T) {
	// An exhausted Ctl yields an empty flagged prefix without running.
	c := exec.New(context.Background(), exec.Limits{Budget: 1})
	for c.Err() == nil {
		c.Point(1)
	}
	ran := false
	prefix, partial, err := For(c, 10, 1, func(*exec.Ctl, int, int, int) (int, error) {
		ran = true
		return 0, nil
	})
	if prefix != 0 || !partial || err != nil || ran {
		t.Fatalf("exhausted Ctl: (%d, %v, %v, ran=%v)", prefix, partial, err, ran)
	}

	// A nil Ctl is inert: the loop runs unmetered to completion.
	out := make([]int, 64)
	prefix, partial, err = For(nil, 64, 8, squareKernel(out))
	if prefix != 64 || partial || err != nil {
		t.Fatalf("nil Ctl: (%d, %v, %v)", prefix, partial, err)
	}

	// Zero work is a clean no-op.
	prefix, partial, err = For(c, 0, 1, squareKernel(nil))
	if prefix != 0 || partial || err != nil {
		t.Fatalf("zero work: (%d, %v, %v)", prefix, partial, err)
	}
}

func TestForNOverridesWorkerCount(t *testing.T) {
	c := exec.New(context.Background(), exec.Limits{}) // Workers 1
	var maxShard atomic.Int64
	out := make([]int, 256)
	prefix, partial, err := ForN(c, 4, 256, 16, func(k *exec.Ctl, shard, lo, hi int) (int, error) {
		for {
			cur := maxShard.Load()
			if int64(shard) <= cur || maxShard.CompareAndSwap(cur, int64(shard)) {
				break
			}
		}
		return squareKernel(out)(k, shard, lo, hi)
	})
	if err != nil || partial || prefix != 256 {
		t.Fatalf("(%d, %v, %v)", prefix, partial, err)
	}
	if maxShard.Load() != 15 {
		t.Fatalf("ForN did not run all 16 shards (max %d)", maxShard.Load())
	}
}

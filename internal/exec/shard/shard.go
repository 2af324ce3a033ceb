// Package shard is the one parallel evaluation substrate under GEA's
// operator algebra. Every data-parallel operator loop — populate's
// candidate verification, aggregate's per-tag statistics, diff's row
// join, the clusterers' distance matrices — is expressed as a Kernel
// over a contiguous index range and driven by For, which:
//
//   - splits the work into deterministic contiguous shards whose
//     boundaries depend only on (work, grain), never on the worker
//     count;
//   - hands each shard a child Ctl carrying a proportional slice of
//     the remaining budget (exec.Ctl.SplitWork), so the
//     charge-then-check discipline holds per shard;
//   - runs the shards on a bounded worker pool, skipping shards past
//     the first stop;
//   - merges the children back (exec.Ctl.Merge) so Units() totals,
//     checkpoint counts, partial flags and the first error are exact.
//
// The contract that makes results bit-identical at any worker count:
// which shards run to completion is a pure function of the budget
// split, and the returned prefix always ends at the first stopped
// shard, so rows past it are discarded even if later shards happened
// to run. Kernels must write only to their own [lo, hi) output slots
// and charge exactly one unit per item through their shard Ctl.
package shard

import (
	"sync"
	"sync/atomic"

	"gea/internal/exec"
)

// Kernel computes items [lo, hi) of a sharded loop, writing results
// into caller-owned per-item slots. It charges one unit per item via
// c.Point BEFORE computing the item and returns the number of items
// fully computed together with the first error c.Point returned (or
// an operator-level failure of its own). A budget or cancellation
// stop is therefore reported as (done < hi-lo, err != nil) with the
// raw Point error — For classifies it; the kernel must not wrap it.
type Kernel func(c *exec.Ctl, shard, lo, hi int) (done int, err error)

// defaultShards is how many shards For aims for when the caller does
// not pick a grain: enough for load balancing on any plausible CPU
// count without drowning small inputs in scheduling overhead.
const defaultShards = 64

// For runs kernel over [0, work) in contiguous shards of the given
// grain (<= 0 picks one), on up to c.Workers() goroutines. It returns
// the length of the valid result prefix, whether that prefix is a
// budget-truncated partial result, and the first (in shard order)
// cancellation or operator error. Exactly one of partial/err is set
// on an early stop; on a clean completion prefix == work.
func For(c *exec.Ctl, work, grain int, kernel Kernel) (prefix int, partial bool, err error) {
	return ForN(c, 0, work, grain, kernel)
}

// ForN is For with an explicit worker count overriding the Ctl's
// (<= 0 defers to the Ctl). PopulateOptions.Workers threads through
// here.
func ForN(c *exec.Ctl, workers, work, grain int, kernel Kernel) (int, bool, error) {
	if work <= 0 {
		return 0, false, nil
	}
	// Pre-flight: a Ctl already stopped by an earlier stage must not
	// start new work. Budget exhaustion yields an empty flagged
	// prefix; a cancellation propagates as the error it is.
	if err := c.Err(); err != nil {
		if exec.IsBudget(err) {
			return 0, true, nil
		}
		return 0, false, err
	}
	if grain <= 0 {
		grain = (work + defaultShards - 1) / defaultShards
	}
	nshards := (work + grain - 1) / grain
	bounds := make([]int, nshards+1)
	//lint:gea ctlcharge -- O(shards) dispatch bookkeeping of the substrate itself; the kernels meter the actual work
	for i := 1; i <= nshards; i++ {
		hi := i * grain
		if hi > work {
			hi = work
		}
		bounds[i] = hi
	}
	if workers <= 0 {
		workers = c.Workers()
	}
	if workers > nshards {
		workers = nshards
	}

	counts := make([]int64, nshards)
	//lint:gea ctlcharge -- O(shards) dispatch bookkeeping of the substrate itself; the kernels meter the actual work
	for i := range counts {
		counts[i] = int64(bounds[i+1] - bounds[i])
	}
	kids := c.SplitWork(counts)

	outs := make([]outcome, nshards)
	if workers <= 1 {
		runSequential(kids, outs, bounds, kernel)
	} else {
		runParallel(kids, outs, bounds, workers, kernel)
	}
	c.Merge(kids...)
	return settle(kids, outs, bounds)
}

// outcome records how one shard ended.
type outcome struct {
	done    int   // items fully computed
	err     error // Point stop or operator error; nil on completion
	skipped bool  // never ran: a prior shard had already stopped
	panicv  any   // recovered panic value, re-raised by settle
}

// stoppedEarly reports whether shard i ended before computing its full
// range — by budget, cancellation, operator error or panic.
func (o *outcome) stoppedEarly() bool {
	return o.err != nil || o.panicv != nil || o.skipped
}

func runSequential(kids []*exec.Ctl, outs []outcome, bounds []int, kernel Kernel) {
	for i := range kids {
		if i > 0 && outs[i-1].stoppedEarly() {
			// Sequential semantics: nothing past the first stop runs.
			for j := i; j < len(outs); j++ {
				outs[j].skipped = true
			}
			return
		}
		// No recover here: at one worker a kernel panic unwinds
		// straight to the operator's Guard, exactly like the old
		// sequential loops.
		outs[i].done, outs[i].err = kernel(kids[i], i, bounds[i], bounds[i+1])
	}
}

func runParallel(kids []*exec.Ctl, outs []outcome, bounds []int, workers int, kernel Kernel) {
	var next atomic.Int64
	var stopIdx atomic.Int64 // lowest shard index known to have stopped
	stopIdx.Store(int64(len(kids)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(kids) {
					return
				}
				if int64(i) > stopIdx.Load() {
					outs[i].skipped = true
					continue
				}
				runShard(kids[i], &outs[i], i, bounds[i], bounds[i+1], kernel)
				if outs[i].stoppedEarly() {
					for {
						cur := stopIdx.Load()
						if int64(i) >= cur || stopIdx.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// runShard executes one shard panic-isolated: a worker goroutine must
// never die with an unrecovered panic (that would crash the process),
// so the panic value is captured and settle re-raises the first one —
// in shard order — on the caller's goroutine for Guard to structure.
func runShard(kid *exec.Ctl, out *outcome, shard, lo, hi int, kernel Kernel) {
	defer func() {
		if rec := recover(); rec != nil {
			out.panicv = rec
		}
	}()
	out.done, out.err = kernel(kid, shard, lo, hi)
}

// settle classifies the run from the first shard (in shard order) that
// ended early. All lower shards completed their full ranges — a shard
// stops only on its own deterministic budget slice, a cancellation, a
// kernel error or a panic — so the prefix is exact.
func settle(kids []*exec.Ctl, outs []outcome, bounds []int) (int, bool, error) {
	for i := range outs {
		o := &outs[i]
		if !o.stoppedEarly() {
			continue
		}
		switch {
		case o.panicv != nil:
			// Re-raise the worker's panic on the caller goroutine, so
			// exec.Guard recovers it into a structured *exec.ExecError.
			panic(o.panicv)
		case o.skipped:
			// First stop was a shard that never ran: only a child born
			// already budget-stopped by a zero slice does that.
			if err := kids[i].Err(); err != nil && !exec.IsBudget(err) {
				return 0, false, err
			}
			return bounds[i], true, nil
		case exec.IsBudget(o.err):
			return bounds[i] + o.done, true, nil
		default:
			return 0, false, o.err
		}
	}
	return bounds[len(bounds)-1], false, nil
}

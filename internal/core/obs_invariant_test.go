package core

import (
	"context"
	"testing"

	"gea/internal/exec"
	"gea/internal/exec/execwalk"
	"gea/internal/interval"
	"gea/internal/sage"
)

// This file pins the observability invariants of the core operator
// families through the execwalk driver: every probe of a checkpoint walk
// (baseline, cancel, budget, panic, coarse cadence) runs span-verified —
// exactly one completed root span whose unit total equals the Ctl's
// charge total, with the outcome the caller observed — and an explicit
// worker sweep re-checks the unit-total identity on the sharded paths.
// The TestSpanInvariant* names are matched by the CI -race walk step.

// spanWalk runs the full checkpoint walk span-verified, then sweeps
// worker counts over the complete and a budget-stopped run.
func spanWalk(t *testing.T, name, op string, run func(ctx context.Context, lim exec.Limits) (exec.Trace, error)) {
	t.Helper()
	verified := execwalk.SpanVerified(t, op, run)
	execwalk.Walk(t, execwalk.Target{Name: name, Run: verified, MaxUnitStep: 1})
	for _, w := range []int{1, 2, 4} {
		tr, err := verified(context.Background(), exec.Limits{Workers: w})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		// A budget below the full total forces a flagged stop; SpanVerified
		// asserts the span comes back partial with matching units.
		if tr.Units >= 2 {
			if _, err := verified(context.Background(), exec.Limits{Workers: w, Budget: tr.Units / 2}); err != nil {
				t.Fatalf("workers %d budget-stop: %v", w, err)
			}
		}
	}
}

func TestSpanInvariantPopulate(t *testing.T) {
	d, cancer, _, idx := execFixture(t)
	for _, tc := range []struct {
		name string
		idx  *TagIndexes
	}{
		{"Populate/sequential", nil},
		{"Populate/indexed", idx},
	} {
		spanWalk(t, tc.name, "core.Populate", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "core.Populate", "spanEnum", func(c *exec.Ctl) (*Enum, bool, error) {
				e, _, partial, err := PopulateWith(c, "spanEnum", cancer, d, tc.idx, PopulateOptions{})
				return e, partial, err
			})
			return tr, err
		})
	}
}

func TestSpanInvariantAggregate(t *testing.T) {
	d := smallDataset()
	e := FullEnum("SAGE", d)
	spanWalk(t, "Aggregate", "core.Aggregate", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
		_, tr, err := exec.Run(ctx, lim, "core.Aggregate", "spanSumy", func(c *exec.Ctl) (*Sumy, bool, error) {
			return AggregateWith(c, "spanSumy", e, AggregateOptions{WithMedian: true})
		})
		return tr, err
	})
}

func TestSpanInvariantDiff(t *testing.T) {
	_, cancer, normal, _ := execFixture(t)
	spanWalk(t, "Diff", "core.Diff", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
		_, tr, err := exec.Run(ctx, lim, "core.Diff", "spanGap", func(c *exec.Ctl) (*Gap, bool, error) {
			return DiffWith(c, "spanGap", cancer, normal)
		})
		return tr, err
	})
}

func TestSpanInvariantRangeSearch(t *testing.T) {
	_, cancer, normal, _ := execFixture(t)
	first := sage.MustParseTag("AAAAAAAAAA")
	last := sage.MustParseTag("TTTTTTTTTT")
	spanWalk(t, "RangeSearch", "core.RangeSearch", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
		_, tr, err := exec.Run(ctx, lim, "core.RangeSearch", "", func(c *exec.Ctl) ([]RangeSearchRow, bool, error) {
			return RangeSearchWith(c, []*Sumy{cancer, normal}, first, last, BroadOverlap(interval.Interval{Min: 0, Max: 1000}))
		})
		return tr, err
	})
}

// TestSpanInvariantMine covers the composite operator: the root span must
// absorb the children (fascicle mining, per-result aggregate and populate)
// while still reconciling with the single Ctl's totals.
func TestSpanInvariantMine(t *testing.T) {
	d := smallDataset()
	p := mineParams(d)
	spanWalk(t, "Mine", "core.Mine", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
		_, tr, err := exec.Run(ctx, lim, "core.Mine", "span", func(c *exec.Ctl) ([]MineResult, bool, error) {
			return MineWith(c, "span", d, p, LatticeAlgorithm)
		})
		return tr, err
	})
}

// TestSpanInvariantSumySetOps covers selection and the three set
// operators sharing the sumySetScan kernel.
func TestSpanInvariantSumySetOps(t *testing.T) {
	_, cancer, normal, _ := execFixture(t)
	keepAll := func(SumyRow) bool { return true }
	for _, tc := range []struct {
		name string
		op   string
		run  func(ctx context.Context, lim exec.Limits) (exec.Trace, error)
	}{
		{"SelectSumy", "core.SelectSumy", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "core.SelectSumy", "spanSel", func(c *exec.Ctl) (*Sumy, bool, error) {
				return SelectSumyWith(c, "spanSel", cancer, keepAll)
			})
			return tr, err
		}},
		{"UnionSumy", "core.UnionSumy", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "core.UnionSumy", "spanUnion", func(c *exec.Ctl) (*Sumy, bool, error) {
				return UnionSumyWith(c, "spanUnion", cancer, normal)
			})
			return tr, err
		}},
		{"IntersectSumy", "core.IntersectSumy", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "core.IntersectSumy", "spanIntersect", func(c *exec.Ctl) (*Sumy, bool, error) {
				return IntersectSumyWith(c, "spanIntersect", cancer, normal)
			})
			return tr, err
		}},
		{"MinusSumy", "core.MinusSumy", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "core.MinusSumy", "spanMinus", func(c *exec.Ctl) (*Sumy, bool, error) {
				return MinusSumyWith(c, "spanMinus", cancer, normal)
			})
			return tr, err
		}},
	} {
		spanWalk(t, tc.name, tc.op, tc.run)
	}
}

// TestSpanInvariantNoCollector pins the opt-in contract from the caller's
// side: without a collector on the context, a governed run must complete
// identically and leave no run record behind.
func TestSpanInvariantNoCollector(t *testing.T) {
	d, cancer, _, _ := execFixture(t)
	_, tr1, err := exec.Run(context.Background(), exec.Limits{}, "core.Populate", "plain", func(c *exec.Ctl) (*Enum, bool, error) {
		e, _, partial, err := PopulateWith(c, "plain", cancer, d, nil, PopulateOptions{})
		return e, partial, err
	})
	if err != nil {
		t.Fatal(err)
	}
	verified := execwalk.SpanVerified(t, "core.Populate", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
		_, tr, err := exec.Run(ctx, lim, "core.Populate", "traced", func(c *exec.Ctl) (*Enum, bool, error) {
			e, _, partial, err := PopulateWith(c, "traced", cancer, d, nil, PopulateOptions{})
			return e, partial, err
		})
		return tr, err
	})
	tr2, err := verified(context.Background(), exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Units != tr2.Units || tr1.Checkpoints != tr2.Checkpoints {
		t.Errorf("tracing changed the work accounting: %+v vs %+v", tr1, tr2)
	}
}

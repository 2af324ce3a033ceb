package system

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"gea/internal/core"
	"gea/internal/exec"
	"gea/internal/exec/execwalk"
	"gea/internal/obs"
	"gea/internal/sage"
)

// This file pins the observability invariants at the system level, where
// one governed invocation spans admission, mining, conversion and lineage
// registration. Matched by the CI -race walk step.

// TestSpanInvariantCalculateFascicles runs the span-verified walk over the
// composite mining operator and sweeps worker counts.
func TestSpanInvariantCalculateFascicles(t *testing.T) {
	sys := newExecSystem(t)
	d, err := sys.Dataset("brain")
	if err != nil {
		t.Fatal(err)
	}
	opts := FascicleOptions{K: d.NumTags() * 60 / 100, MinSize: 3, Algorithm: core.GreedyAlgorithm}
	verified := execwalk.SpanVerified(t, "system.CalculateFascicles",
		func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := sys.CalculateFasciclesCtx(ctx, "brain", opts, lim)
			return tr, err
		})
	execwalk.Walk(t, execwalk.Target{Name: "CalculateFascicles", Run: verified, MaxProbes: 6})
	for _, w := range []int{2, 4} {
		if _, err := verified(context.Background(), exec.Limits{Workers: w}); err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
	}
}

// TestSpanInvariantCreateGap covers the gap operator; every invocation
// needs a fresh lineage name.
func TestSpanInvariantCreateGap(t *testing.T) {
	sys, _ := newSystem(t)
	groups, _ := runBrainPipeline(t, sys)
	var n int64
	verified := execwalk.SpanVerified(t, "system.CreateGap",
		func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			name := fmt.Sprintf("spangap_%d", atomic.AddInt64(&n, 1))
			_, tr, err := sys.CreateGapCtx(ctx, name, groups.InFascicle, groups.Opposite, lim)
			return tr, err
		})
	execwalk.Walk(t, execwalk.Target{Name: "CreateGap", Run: verified, MaxProbes: 6, MaxUnitStep: 1})
}

// TestSpanInvariantFindPureFascicleBudget pins the budget outcome on the
// one operator that errors (rather than truncates) when the budget runs
// out: the root span must be flagged with the budget outcome and still
// reconcile with the trace's unit total.
func TestSpanInvariantFindPureFascicleBudget(t *testing.T) {
	sys := newExecSystem(t)
	col := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), col)
	_, tr, err := sys.FindPureFascicleCtx(ctx, "brain", sage.PropCancer, 3,
		core.LatticeAlgorithm, exec.Limits{Budget: 3})
	if !exec.IsBudget(err) {
		t.Fatalf("budget 3: got %v, want exec.ErrBudget", err)
	}
	root := col.LastRoot()
	if root == nil || root.Op != "system.FindPureFascicle" {
		t.Fatalf("no root span for the budget-stopped search: %+v", root)
	}
	if root.Outcome != obs.OutcomeBudget {
		t.Errorf("root span outcome %q, want %q", root.Outcome, obs.OutcomeBudget)
	}
	if root.Units != tr.Units {
		t.Errorf("root span recorded %d units, trace charged %d", root.Units, tr.Units)
	}
}

// TestSpanInvariantLineageAttach checks the lineage linkage: a traced
// mining run attaches its completed run record to every fascicle node it
// registered, and an untraced run attaches nothing.
func TestSpanInvariantLineageAttach(t *testing.T) {
	sys := newExecSystem(t)
	d, err := sys.Dataset("brain")
	if err != nil {
		t.Fatal(err)
	}
	opts := FascicleOptions{K: d.NumTags() * 60 / 100, MinSize: 3, Algorithm: core.GreedyAlgorithm}
	col := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), col)
	names, _, err := sys.CalculateFasciclesCtx(ctx, "brain", opts, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no fascicles mined; fixture too weak for the linkage check")
	}
	root := col.LastRoot()
	if root == nil {
		t.Fatal("traced run left no record")
	}
	for _, n := range names {
		node, err := sys.Lineage.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(node.Runs) != 1 || node.Runs[0] != root {
			t.Errorf("node %s: runs = %d, want the mining run record attached", n, len(node.Runs))
		}
	}
}

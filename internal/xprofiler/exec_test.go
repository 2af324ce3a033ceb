package xprofiler

import (
	"context"
	"math"
	"testing"

	"gea/internal/exec"
	"gea/internal/exec/execwalk"
	"gea/internal/sage"
)

func TestCompareCheckpointWalk(t *testing.T) {
	c, _ := buildCorpus(t)
	a, err := PoolByState(c, "brain", sage.Cancer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoolByState(c, "brain", sage.Normal)
	if err != nil {
		t.Fatal(err)
	}
	execwalk.Walk(t, execwalk.Target{
		Name: "Compare",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "xprofiler.Compare", "", func(c *exec.Ctl) ([]Result, bool, error) {
				return CompareWith(c, a, b, Options{})
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

// TestComparePartialIsPrefix checks budget-stopped comparisons only ever
// contain results the full run also contains.
func TestComparePartialIsPrefix(t *testing.T) {
	c, _ := buildCorpus(t)
	a, _ := PoolByState(c, "brain", sage.Cancer)
	b, _ := PoolByState(c, "brain", sage.Normal)
	full, _, err := CompareWith(exec.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inFull := map[sage.TagID]bool{}
	for _, r := range full {
		inFull[r.Tag] = true
	}
	for budget := int64(1); budget < 2000; budget += 97 {
		got, tr, err := exec.Run(context.Background(), exec.Limits{Budget: budget}, "xprofiler.Compare", "", func(c *exec.Ctl) ([]Result, bool, error) {
			return CompareWith(c, a, b, Options{})
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		for _, r := range got {
			if !inFull[r.Tag] {
				t.Fatalf("budget %d: partial result invented tag %v", budget, r.Tag)
			}
		}
		if !tr.Partial && len(got) != len(full) {
			t.Fatalf("budget %d: silent truncation: %d vs %d", budget, len(got), len(full))
		}
	}
}

func TestCompareValidation(t *testing.T) {
	c, _ := buildCorpus(t)
	a, _ := PoolByState(c, "brain", sage.Cancer)
	b, _ := PoolByState(c, "brain", sage.Normal)
	if _, _, err := CompareWith(exec.Background(), a, b, Options{Alpha: math.NaN()}); err == nil {
		t.Error("NaN alpha accepted")
	}
	if _, _, err := CompareWith(exec.Background(), a, b, Options{Alpha: 2}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, _, err := CompareWith(exec.Background(), a, b, Options{MinCount: math.NaN()}); err == nil {
		t.Error("NaN min count accepted")
	}
	if _, _, err := CompareWith(exec.Background(), a, b, Options{MinCount: -1}); err == nil {
		t.Error("negative min count accepted")
	}
	if _, _, err := CompareWith(exec.Background(), nil, b, Options{}); err == nil {
		t.Error("nil pool accepted")
	}
}

package fascicle

import (
	"context"
	"errors"
	"math"
	"testing"

	"gea/internal/exec"
	"gea/internal/exec/execwalk"
	"gea/internal/sage"
)

// TestLatticeCheckpointWalk proves the lattice miner observes
// cancellation, deadlines and budgets within one checkpoint interval,
// flags truncated results, and converts panics to *exec.ExecError.
func TestLatticeCheckpointWalk(t *testing.T) {
	d := table22Dataset(t)
	p := Params{K: 2, Tolerance: table22Tolerance(), MinSize: 2}
	execwalk.Walk(t, execwalk.Target{
		Name: "Lattice",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "fascicle.Lattice", "", func(c *exec.Ctl) ([]*Fascicle, bool, error) {
				return LatticeWith(c, d, p)
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

func TestGreedyCheckpointWalk(t *testing.T) {
	d := table22Dataset(t)
	p := Params{K: 2, Tolerance: table22Tolerance(), MinSize: 2, BatchSize: 3}
	execwalk.Walk(t, execwalk.Target{
		Name: "Greedy",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "fascicle.Greedy", "", func(c *exec.Ctl) ([]*Fascicle, bool, error) {
				return GreedyWith(c, d, p)
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

// TestLatticePartialIsPrefix checks a budget-cut lattice run returns a
// subset of the full run's fascicles (plus possibly non-maximal level
// candidates) rather than fabricated sets.
func TestLatticePartialIsPrefix(t *testing.T) {
	d := table22Dataset(t)
	p := Params{K: 2, Tolerance: table22Tolerance(), MinSize: 2}
	full, _, err := LatticeWith(exec.Background(), d, p)
	if err != nil {
		t.Fatal(err)
	}
	valid := func(f *Fascicle) bool {
		// Every emitted fascicle, partial or not, must respect tolerances.
		tol := toleranceSlice(d, p.Tolerance)
		for i, col := range f.CompactCols {
			if f.Max[i]-f.Min[i] > tol[col] {
				return false
			}
		}
		return f.NumCompact() >= p.K && f.Size() >= p.MinSize
	}
	for budget := int64(1); budget < 60; budget += 7 {
		fs, tr, err := exec.Run(context.Background(), exec.Limits{Budget: budget}, "fascicle.Lattice", "", func(c *exec.Ctl) ([]*Fascicle, bool, error) {
			return LatticeWith(c, d, p)
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !tr.Partial && len(fs) != len(full) {
			t.Fatalf("budget %d: unflagged truncation: %d vs %d fascicles", budget, len(fs), len(full))
		}
		for _, f := range fs {
			if !valid(f) {
				t.Fatalf("budget %d: invalid fascicle %+v in partial result", budget, f)
			}
		}
	}
}

// TestParamErrors covers the typed up-front validation, including the
// negative/NaN tolerance cases that previously slipped into the miners.
func TestParamErrors(t *testing.T) {
	d := table22Dataset(t)
	nan := math.NaN()
	negTol := table22Tolerance()
	negTol[sage.MustParseTag("AAAAAAAAAC")] = -1
	nanTol := table22Tolerance()
	nanTol[sage.MustParseTag("AAAAAAAAAC")] = nan

	for name, p := range map[string]Params{
		"negative tolerance": {K: 2, MinSize: 1, Tolerance: negTol},
		"nan tolerance":      {K: 2, MinSize: 1, Tolerance: nanTol},
		"negative maxcand":   {K: 2, MinSize: 1, MaxCandidates: -4},
		"zero k":             {K: 0, MinSize: 1},
		"oversized k":        {K: d.NumTags() + 1, MinSize: 1},
	} {
		err := p.Validate(d)
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got %v, want *ParamError", name, err)
		} else if pe.Param == "" || pe.Error() == "" {
			t.Errorf("%s: ParamError missing detail: %+v", name, pe)
		}
	}
	// Valid params still pass.
	if err := (&Params{K: 2, MinSize: 1, Tolerance: table22Tolerance()}).Validate(d); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

package core

import (
	"context"
	"fmt"
	"testing"

	"gea/internal/exec"
	"gea/internal/exec/execwalk"
	"gea/internal/fascicle"
	"gea/internal/interval"
	"gea/internal/sage"
)

// execFixture builds the SUMY/ENUM inputs the governed operators run
// over: the full dataset, a SUMY per tissue signature, and tag indexes.
func execFixture(t *testing.T) (d *sage.Dataset, cancer, normal *Sumy, idx *TagIndexes) {
	t.Helper()
	d = smallDataset()
	mk := func(name string, rows []int) *Sumy {
		e, err := NewEnum(name+"_members", d, rows, []int{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := AggregateWith(exec.Background(), name, e, AggregateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cancer = mk("cancerSumy", []int{0, 1, 2})
	normal = mk("normalSumy", []int{3, 4})
	var err error
	idx, err = BuildTagIndexes(d, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	return d, cancer, normal, idx
}

func TestPopulateCheckpointWalk(t *testing.T) {
	d, cancer, _, idx := execFixture(t)
	for _, tc := range []struct {
		name string
		idx  *TagIndexes
	}{
		{"Populate/sequential", nil},
		{"Populate/indexed", idx},
	} {
		execwalk.Walk(t, execwalk.Target{
			Name: tc.name,
			Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
				_, tr, err := exec.Run(ctx, lim, "core.Populate", "walkEnum", func(c *exec.Ctl) (*Enum, bool, error) {
					e, _, partial, err := PopulateWith(c, "walkEnum", cancer, d, tc.idx, PopulateOptions{})
					return e, partial, err
				})
				return tr, err
			},
			MaxUnitStep: 1,
		})
	}
}

func TestAggregateCheckpointWalk(t *testing.T) {
	d := smallDataset()
	e := FullEnum("SAGE", d)
	execwalk.Walk(t, execwalk.Target{
		Name: "Aggregate",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "core.Aggregate", "walkSumy", func(c *exec.Ctl) (*Sumy, bool, error) {
				return AggregateWith(c, "walkSumy", e, AggregateOptions{WithMedian: true})
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

func TestDiffCheckpointWalk(t *testing.T) {
	_, cancer, normal, _ := execFixture(t)
	execwalk.Walk(t, execwalk.Target{
		Name: "Diff",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "core.Diff", "walkGap", func(c *exec.Ctl) (*Gap, bool, error) {
				return DiffWith(c, "walkGap", cancer, normal)
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

func TestRangeSearchCheckpointWalk(t *testing.T) {
	_, cancer, normal, _ := execFixture(t)
	first := sage.MustParseTag("AAAAAAAAAA")
	last := sage.MustParseTag("TTTTTTTTTT")
	execwalk.Walk(t, execwalk.Target{
		Name: "RangeSearch",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "core.RangeSearch", "", func(c *exec.Ctl) ([]RangeSearchRow, bool, error) {
				return RangeSearchWith(c, []*Sumy{cancer, normal}, first, last, BroadOverlap(interval.Interval{Min: 0, Max: 1000}))
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

func mineParams(d *sage.Dataset) fascicle.Params {
	tol := make(map[sage.TagID]float64, d.NumTags())
	for _, tg := range d.Tags {
		tol[tg] = 25
	}
	return fascicle.Params{K: 2, Tolerance: tol, MinSize: 2}
}

func TestMineCheckpointWalk(t *testing.T) {
	d := smallDataset()
	p := mineParams(d)
	for _, tc := range []struct {
		name string
		alg  Algorithm
	}{
		{"Mine/lattice", LatticeAlgorithm},
		{"Mine/greedy", GreedyAlgorithm},
	} {
		execwalk.Walk(t, execwalk.Target{
			Name: tc.name,
			Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
				_, tr, err := exec.Run(ctx, lim, "core.Mine", "walk", func(c *exec.Ctl) ([]MineResult, bool, error) {
					return MineWith(c, "walk", d, p, tc.alg)
				})
				return tr, err
			},
			MaxUnitStep: 1,
		})
	}
}

// TestMinePartialResultsAreComplete asserts the composite operator's
// contract: any MineResult returned under a budget is fully converted
// (fascicle + SUMY + ENUM all present) and the truncation is flagged.
func TestMinePartialResultsAreComplete(t *testing.T) {
	d := smallDataset()
	p := mineParams(d)
	full, _, err := MineWith(exec.Background(), "walk", d, p, LatticeAlgorithm)
	if err != nil {
		t.Fatal(err)
	}
	for budget := int64(1); budget < 200; budget += 13 {
		rs, tr, err := exec.Run(context.Background(), exec.Limits{Budget: budget}, "core.Mine", "walk", func(c *exec.Ctl) ([]MineResult, bool, error) {
			return MineWith(c, "walk", d, p, LatticeAlgorithm)
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		for _, r := range rs {
			if r.Fascicle == nil || r.Sumy == nil || r.Enum == nil {
				t.Fatalf("budget %d: half-converted MineResult emitted: %+v", budget, r)
			}
		}
		if !tr.Partial && len(rs) != len(full) {
			t.Fatalf("budget %d: silent truncation: %d of %d results, no partial flag",
				budget, len(rs), len(full))
		}
	}
}

// renderSumy gives one canonical line per SUMY row; %x renders each
// float losslessly, so "bit-identical at any worker count" really is a
// string comparison.
func renderSumy(s *Sumy) []string {
	out := make([]string, len(s.Rows))
	for i, r := range s.Rows {
		line := fmt.Sprintf("%v [%x,%x] mean=%x std=%x", r.Tag, r.Range.Min, r.Range.Max, r.Mean, r.Std)
		for _, col := range s.ExtraCols {
			line += fmt.Sprintf(" %s=%x", col, r.Extra[col])
		}
		out[i] = line
	}
	return out
}

// TestShardEquivPopulate drives populate's candidate-verification scan
// through the sharded-equivalence suite. The SUMY admits every library,
// so each charged candidate keeps exactly one ENUM row and the prefix
// left by a budget stop is visible in the result itself.
func TestShardEquivPopulate(t *testing.T) {
	d := smallDataset()
	rows := make([]SumyRow, 0, d.NumTags())
	for _, tg := range d.Tags {
		rows = append(rows, SumyRow{Tag: tg, Range: interval.Interval{Min: 0, Max: 1e9}})
	}
	allPass := NewSumy("allPass", rows, nil)
	execwalk.WalkSharded(t, execwalk.ShardedTarget{
		Name: "Populate",
		Run: func(ctx context.Context, workers int, lim exec.Limits) ([]string, exec.Trace, error) {
			lim.Workers = workers
			e, tr, err := exec.Run(ctx, lim, "core.Populate", "shardEnum", func(c *exec.Ctl) (*Enum, bool, error) {
				e, _, partial, err := PopulateWith(c, "shardEnum", allPass, d, nil, PopulateOptions{})
				return e, partial, err
			})
			if err != nil {
				return nil, tr, err
			}
			out := make([]string, len(e.Rows))
			for i, r := range e.Rows {
				out[i] = fmt.Sprintf("lib%d", r)
			}
			return out, tr, nil
		},
	})
}

func TestShardEquivAggregate(t *testing.T) {
	d := smallDataset()
	e := FullEnum("SAGE", d)
	execwalk.WalkSharded(t, execwalk.ShardedTarget{
		Name: "Aggregate",
		Run: func(ctx context.Context, workers int, lim exec.Limits) ([]string, exec.Trace, error) {
			lim.Workers = workers
			s, tr, err := exec.Run(ctx, lim, "core.Aggregate", "shardSumy", func(c *exec.Ctl) (*Sumy, bool, error) {
				return AggregateWith(c, "shardSumy", e, AggregateOptions{WithMedian: true})
			})
			if err != nil {
				return nil, tr, err
			}
			return renderSumy(s), tr, nil
		},
	})
}

// TestShardEquivDiff joins two SUMY tables that share every tag, so
// each charged tag emits exactly one GAP row.
func TestShardEquivDiff(t *testing.T) {
	_, cancer, normal, _ := execFixture(t)
	execwalk.WalkSharded(t, execwalk.ShardedTarget{
		Name: "Diff",
		Run: func(ctx context.Context, workers int, lim exec.Limits) ([]string, exec.Trace, error) {
			lim.Workers = workers
			g, tr, err := exec.Run(ctx, lim, "core.Diff", "shardGap", func(c *exec.Ctl) (*Gap, bool, error) {
				return DiffWith(c, "shardGap", cancer, normal)
			})
			if err != nil {
				return nil, tr, err
			}
			out := make([]string, len(g.Rows))
			for i, r := range g.Rows {
				out[i] = fmt.Sprintf("%v null=%v v=%x", r.Tag, r.Values[0].Null, r.Values[0].V)
			}
			return out, tr, nil
		},
	})
}

func TestShardEquivRangeSearch(t *testing.T) {
	_, cancer, normal, _ := execFixture(t)
	first := sage.MustParseTag("AAAAAAAAAA")
	last := sage.MustParseTag("TTTTTTTTTT")
	cond := BroadOverlap(interval.Interval{Min: 0, Max: 1000})
	execwalk.WalkSharded(t, execwalk.ShardedTarget{
		Name: "RangeSearch",
		Run: func(ctx context.Context, workers int, lim exec.Limits) ([]string, exec.Trace, error) {
			lim.Workers = workers
			rows, tr, err := exec.Run(ctx, lim, "core.RangeSearch", "", func(c *exec.Ctl) ([]RangeSearchRow, bool, error) {
				return RangeSearchWith(c, []*Sumy{cancer, normal}, first, last, cond)
			})
			if err != nil {
				return nil, tr, err
			}
			out := make([]string, len(rows))
			for i, r := range rows {
				line := fmt.Sprintf("%v", r.Tag)
				for _, cell := range r.Cells {
					line += fmt.Sprintf(" %v[%x,%x]", cell.Outcome, cell.Range.Min, cell.Range.Max)
				}
				out[i] = line
			}
			return out, tr, nil
		},
	})
}

// TestShardEquivSelectSumy covers sumySetScan, the kernel shared by
// selection, minus and intersection. The keep-all predicate makes every
// charged tag emit one row, as the prefix contract requires.
func TestShardEquivSelectSumy(t *testing.T) {
	_, cancer, _, _ := execFixture(t)
	keepAll := func(SumyRow) bool { return true }
	execwalk.WalkSharded(t, execwalk.ShardedTarget{
		Name: "SelectSumy",
		Run: func(ctx context.Context, workers int, lim exec.Limits) ([]string, exec.Trace, error) {
			lim.Workers = workers
			s, tr, err := exec.Run(ctx, lim, "core.SelectSumy", "shardSel", func(c *exec.Ctl) (*Sumy, bool, error) {
				return SelectSumyWith(c, "shardSel", cancer, keepAll)
			})
			if err != nil {
				return nil, tr, err
			}
			return renderSumy(s), tr, nil
		},
	})
}

// TestShardEquivUnionSumy covers the union kernel. The operands are
// disjoint and a's tags all sort before b's, so the sorted output order
// equals the charge order and every unit keeps one row.
func TestShardEquivUnionSumy(t *testing.T) {
	mk := func(tag string, lo, hi float64) SumyRow {
		return SumyRow{Tag: sage.MustParseTag(tag), Range: interval.Interval{Min: lo, Max: hi}}
	}
	a := NewSumy("ua", []SumyRow{mk("AAAAAAAAAA", 1, 2), mk("AAAACCCCGG", 3, 4), mk("CCCCAAAAAA", 5, 6)}, nil)
	b := NewSumy("ub", []SumyRow{mk("GGGGAAAAAA", 7, 8), mk("TTTTAAAAAA", 9, 10)}, nil)
	execwalk.WalkSharded(t, execwalk.ShardedTarget{
		Name: "UnionSumy",
		Run: func(ctx context.Context, workers int, lim exec.Limits) ([]string, exec.Trace, error) {
			lim.Workers = workers
			s, tr, err := exec.Run(ctx, lim, "core.UnionSumy", "shardUnion", func(c *exec.Ctl) (*Sumy, bool, error) {
				return UnionSumyWith(c, "shardUnion", a, b)
			})
			if err != nil {
				return nil, tr, err
			}
			return renderSumy(s), tr, nil
		},
	})
}

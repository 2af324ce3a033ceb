package core

import (
	"fmt"

	"gea/internal/exec"
	"gea/internal/exec/shard"
	"gea/internal/interval"
	"gea/internal/stats"
)

// AggregateOptions extends the basic SUMY aggregates.
type AggregateOptions struct {
	// WithMedian adds a "median" extra column. The thesis calls this out as
	// the aggregate that raises the cost from one pass to O(n log n).
	WithMedian bool
}

// AggregateWith converts a cluster from its extensional form to its
// intensional form: for each tag of the Enum, the range, mean and standard
// deviation of its expression levels across the member libraries (the
// aggregate() operator of Figure 3.1, the inverse of populate).
//
// One work unit is one tag column aggregated; on budget exhaustion the
// tags aggregated so far form a flagged partial SUMY. Columns evaluate
// through the shard substrate — each worker aggregates a contiguous
// column range into its own slots with its own scratch buffer, so the
// SUMY is bit-identical at any worker count.
func AggregateWith(c *exec.Ctl, name string, e *Enum, opts AggregateOptions) (_ *Sumy, partial bool, err error) {
	sp := c.StartSpan("core.Aggregate")
	sp.SetInput("enum %s: %d libraries x %d tags", e.Name, e.Size(), e.NumTags())
	defer c.EndSpan(sp, &partial, &err)
	if e.Size() == 0 {
		return nil, false, fmt.Errorf("core: aggregate %s: enum %s has no libraries", name, e.Name)
	}
	var extraCols []string
	if opts.WithMedian {
		extraCols = []string{"median"}
	}
	out := make([]SumyRow, e.NumTags())
	prefix, partial, err := shard.For(c, e.NumTags(), 0, func(c *exec.Ctl, _, klo, khi int) (int, error) {
		vals := make([]float64, e.Size())
		for j := klo; j < khi; j++ {
			if err := c.Point(1); err != nil {
				return j - klo, err
			}
			col := e.Cols[j]
			for i, r := range e.Rows {
				vals[i] = e.Data.Expr[r][col]
			}
			lo := vals[0]
			hi := lo
			for _, v := range vals {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			mean, std := stats.MeanStd(vals)
			row := SumyRow{
				Tag:   e.Data.Tags[col],
				Range: interval.Interval{Min: lo, Max: hi},
				Mean:  mean,
				Std:   std,
			}
			if opts.WithMedian {
				med, err := stats.Median(vals)
				if err != nil {
					return j - klo, err
				}
				row.Extra = map[string]float64{"median": med}
			}
			out[j] = row
		}
		return khi - klo, nil
	})
	if err != nil {
		return nil, false, err
	}
	return NewSumy(name, out[:prefix], extraCols), partial, nil
}

// SumyPredicate decides whether a SUMY row qualifies for selection.
type SumyPredicate func(SumyRow) bool

// SelectSumyWith applies relational selection to a SUMY table, producing
// another SUMY table (Section 3.2.3).
//
// One work unit is one row tested; on budget exhaustion the rows tested
// so far form a flagged partial SUMY. The predicate must be a pure
// function of its row: the scan evaluates through the shard substrate,
// which may call it from several goroutines.
func SelectSumyWith(c *exec.Ctl, name string, s *Sumy, pred SumyPredicate) (_ *Sumy, partial bool, err error) {
	sp := c.StartSpan("core.SelectSumy")
	sp.SetInput("sumy %s: %d rows", s.Name, len(s.Rows))
	defer c.EndSpan(sp, &partial, &err)
	keep := make([]bool, len(s.Rows))
	prefix, partial, err := shard.For(c, len(s.Rows), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for i := lo; i < hi; i++ {
			if err := c.Point(1); err != nil {
				return i - lo, err
			}
			keep[i] = pred(s.Rows[i])
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	var rows []SumyRow
	//lint:gea ctlcharge -- compaction of the already-metered shard prefix; every row was charged inside the kernel above
	for i := 0; i < prefix; i++ {
		if keep[i] {
			rows = append(rows, s.Rows[i])
		}
	}
	return NewSumy(name, rows, s.ExtraCols), partial, nil
}

// RangeRelation returns a predicate that holds when the row's range stands
// in Allen relation rel to query — the range arithmetic of Section 4.4.1.
func RangeRelation(rel interval.Relation, query interval.Interval) SumyPredicate {
	return func(r SumyRow) bool { return interval.Holds(rel, r.Range, query) }
}

// RangeAnyOverlap returns a predicate that holds when the row's range shares
// at least one point with query — the broad "overlaps" of the range-search
// GUI (Figure 4.17).
func RangeAnyOverlap(query interval.Interval) SumyPredicate {
	return func(r SumyRow) bool { return interval.AnyOverlap(r.Range, query) }
}

// ProjectSumyWith drops extra aggregate columns, keeping only the named
// ones (the standard projection operator on SUMY tables). One work unit
// is one row projected; on budget exhaustion the rows projected so far
// form a flagged partial SUMY.
func ProjectSumyWith(c *exec.Ctl, name string, s *Sumy, keep []string) (_ *Sumy, partial bool, err error) {
	sp := c.StartSpan("core.ProjectSumy")
	sp.SetInput("sumy %s: %d rows, keep %d cols", s.Name, len(s.Rows), len(keep))
	defer c.EndSpan(sp, &partial, &err)
	keepSet := make(map[string]bool, len(keep))
	//lint:gea ctlcharge -- O(|keep|) setup over the caller's column list; the per-row projection is metered below
	for _, k := range keep {
		keepSet[k] = true
	}
	var cols []string
	//lint:gea ctlcharge -- O(|extra columns|) setup; the per-row projection is metered below
	for _, col := range s.ExtraCols {
		if keepSet[col] {
			cols = append(cols, col)
		}
	}
	out := make([]SumyRow, len(s.Rows))
	prefix, partial, err := shard.For(c, len(s.Rows), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for i := lo; i < hi; i++ {
			if err := c.Point(1); err != nil {
				return i - lo, err
			}
			nr := s.Rows[i]
			if len(cols) == 0 {
				nr.Extra = nil
			} else {
				nr.Extra = make(map[string]float64, len(cols))
				for _, col := range cols {
					if v, ok := s.Rows[i].Extra[col]; ok {
						nr.Extra[col] = v
					}
				}
			}
			out[i] = nr
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	return NewSumy(name, out[:prefix], cols), partial, nil
}

// MinusSumyWith extracts the tags appearing in a but missing in b
// (tag-level set minus, Section 3.2.3). One work unit is one tag of a
// probed against b; on budget exhaustion the tags examined so far form a
// flagged partial SUMY.
func MinusSumyWith(c *exec.Ctl, name string, a, b *Sumy) (_ *Sumy, partial bool, err error) {
	sp := c.StartSpan("core.MinusSumy")
	sp.SetInput("%s (%d rows) minus %s (%d rows)", a.Name, len(a.Rows), b.Name, len(b.Rows))
	defer c.EndSpan(sp, &partial, &err)
	return sumySetScan(c, name, a, func(r SumyRow) bool {
		_, ok := b.Row(r.Tag)
		return !ok
	})
}

// IntersectSumyWith keeps the tags of a that also appear in b, with a's
// aggregates. One work unit is one tag of a probed against b; on budget
// exhaustion the tags examined so far form a flagged partial SUMY.
func IntersectSumyWith(c *exec.Ctl, name string, a, b *Sumy) (_ *Sumy, partial bool, err error) {
	sp := c.StartSpan("core.IntersectSumy")
	sp.SetInput("%s (%d rows) intersect %s (%d rows)", a.Name, len(a.Rows), b.Name, len(b.Rows))
	defer c.EndSpan(sp, &partial, &err)
	return sumySetScan(c, name, a, func(r SumyRow) bool {
		_, ok := b.Row(r.Tag)
		return ok
	})
}

// UnionSumyWith concatenates a with the b-only tags (a's values win on
// common tags; extra columns from a). One work unit is one tag of a
// copied or one tag of b probed against a; on budget exhaustion the tags
// merged so far form a flagged partial SUMY.
func UnionSumyWith(c *exec.Ctl, name string, a, b *Sumy) (_ *Sumy, partial bool, err error) {
	sp := c.StartSpan("core.UnionSumy")
	sp.SetInput("%s (%d rows) union %s (%d rows)", a.Name, len(a.Rows), b.Name, len(b.Rows))
	defer c.EndSpan(sp, &partial, &err)
	na := len(a.Rows)
	out := make([]SumyRow, na+len(b.Rows))
	keep := make([]bool, na+len(b.Rows))
	prefix, partial, err := shard.For(c, na+len(b.Rows), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for i := lo; i < hi; i++ {
			if err := c.Point(1); err != nil {
				return i - lo, err
			}
			if i < na {
				out[i] = a.Rows[i]
				keep[i] = true
				continue
			}
			r := b.Rows[i-na]
			if _, ok := a.Row(r.Tag); !ok {
				out[i] = r
				keep[i] = true
			}
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	var rows []SumyRow
	//lint:gea ctlcharge -- compaction of the already-metered shard prefix; every tag was charged inside the kernel above
	for i := 0; i < prefix; i++ {
		if keep[i] {
			rows = append(rows, out[i])
		}
	}
	return NewSumy(name, rows, a.ExtraCols), partial, nil
}

// sumySetScan is the shared kernel of the tag-level set operations: it
// keeps the rows of a satisfying keep, evaluated through the shard
// substrate with one unit charged per tag.
func sumySetScan(c *exec.Ctl, name string, a *Sumy, keepRow func(SumyRow) bool) (*Sumy, bool, error) {
	keep := make([]bool, len(a.Rows))
	prefix, partial, err := shard.For(c, len(a.Rows), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for i := lo; i < hi; i++ {
			if err := c.Point(1); err != nil {
				return i - lo, err
			}
			keep[i] = keepRow(a.Rows[i])
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	var rows []SumyRow
	//lint:gea ctlcharge -- compaction of the already-metered shard prefix; every tag was charged inside the kernel above
	for i := 0; i < prefix; i++ {
		if keep[i] {
			rows = append(rows, a.Rows[i])
		}
	}
	return NewSumy(name, rows, a.ExtraCols), partial, nil
}

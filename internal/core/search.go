package core

import (
	"fmt"
	"slices"

	"gea/internal/exec"
	"gea/internal/exec/shard"
	"gea/internal/interval"
	"gea/internal/sage"
)

// This file implements the search operations of Section 4.4: range
// arithmetic over multiple SUMY tables (Figures 4.16-4.17) and the general
// expression-value lookups of the SAGE database (Figures 4.23-4.26).

// RangeOutcome is one cell of a range-arithmetic search result.
type RangeOutcome int

// Outcomes, matching the GUI's display codes.
const (
	// RangeSatisfied: the relation holds; the actual range is reported.
	RangeSatisfied RangeOutcome = iota
	// RangeNo ("NO"): the tag exists but the relation does not hold.
	RangeNo
	// RangeNotExist ("NE"): the tag does not exist in the SUMY table.
	RangeNotExist
)

// String renders the outcome code as the GUI does.
func (o RangeOutcome) String() string {
	switch o {
	case RangeSatisfied:
		return "OK"
	case RangeNo:
		return "NO"
	default:
		return "NE"
	}
}

// RangeCell is the outcome for one (tag, SUMY) pair.
type RangeCell struct {
	Outcome RangeOutcome
	Range   interval.Interval // valid when Outcome == RangeSatisfied
}

// RangeSearchRow is one row of a multi-SUMY range search.
type RangeSearchRow struct {
	Tag   sage.TagID
	Cells []RangeCell // parallel to the searched SUMY tables
}

// RangeCondition decides whether a tag's range satisfies a range-arithmetic
// search. Use StrictRelation for one of Allen's thirteen relations or
// BroadOverlap for the GUI's inclusive "overlaps" (any shared point).
type RangeCondition func(interval.Interval) bool

// StrictRelation holds when the range stands in exactly relation rel to
// query.
func StrictRelation(rel interval.Relation, query interval.Interval) RangeCondition {
	return func(r interval.Interval) bool { return interval.Holds(rel, r, query) }
}

// BroadOverlap holds when the range shares at least one point with query —
// the semantics of the Figure 4.16 "Overlaps" search, where the tag range
// [20, 616] satisfies the query [10, 700] even though Allen classifies the
// pair as "during".
func BroadOverlap(query interval.Interval) RangeCondition {
	return func(r interval.Interval) bool { return interval.AnyOverlap(r, query) }
}

// RangeSearchWith checks, for each tag in [firstTag, lastTag], whether its
// range in each SUMY table satisfies the condition — the Figure 4.16
// search. Tags outside every table are omitted.
//
// One work unit is one SUMY row scanned during tag collection or one
// candidate tag checked; on budget exhaustion the tags examined so far
// form a flagged partial report. Both phases evaluate through the shard
// substrate: collection marks per-row hits and checking fills per-tag
// rows, each worker touching only its own slots, so the report is
// bit-identical at any worker count. The condition must be a pure
// function of its interval.
func RangeSearchWith(c *exec.Ctl, sumys []*Sumy, firstTag, lastTag sage.TagID, cond RangeCondition) (_ []RangeSearchRow, partial bool, err error) {
	sp := c.StartSpan("core.RangeSearch")
	sp.SetInput("%d sumy tables, tag range %v-%v", len(sumys), firstTag, lastTag)
	defer c.EndSpan(sp, &partial, &err)
	if len(sumys) == 0 {
		return nil, false, fmt.Errorf("core: range search needs at least one SUMY table")
	}
	if firstTag > lastTag {
		return nil, false, fmt.Errorf("core: tag range %v-%v is inverted", firstTag, lastTag)
	}
	// Collect candidate tags in range from all tables. A budget stop
	// during collection discards the incomplete candidate set: a report
	// built from half-collected tags would not be a prefix of the full
	// report.
	tagSet := map[sage.TagID]bool{}
	for _, s := range sumys {
		hit := make([]bool, len(s.Rows))
		_, partial, err := shard.For(c, len(s.Rows), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				if err := c.Point(1); err != nil {
					return i - lo, err
				}
				hit[i] = s.Rows[i].Tag >= firstTag && s.Rows[i].Tag <= lastTag
			}
			return hi - lo, nil
		})
		if err != nil {
			return nil, false, err
		}
		if partial {
			return nil, true, nil
		}
		for i, r := range s.Rows {
			if hit[i] {
				tagSet[r.Tag] = true
			}
		}
	}
	tags := make([]sage.TagID, 0, len(tagSet))
	//lint:gea ctlcharge -- set-to-slice materialization; every tag was charged on collection and is charged again when checked
	for t := range tagSet {
		tags = append(tags, t)
	}
	slices.Sort(tags)

	out := make([]RangeSearchRow, len(tags))
	prefix, partial, err := shard.For(c, len(tags), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for j := lo; j < hi; j++ {
			if err := c.Point(1); err != nil {
				return j - lo, err
			}
			t := tags[j]
			row := RangeSearchRow{Tag: t, Cells: make([]RangeCell, len(sumys))}
			for i, s := range sumys {
				sr, ok := s.Row(t)
				switch {
				case !ok:
					row.Cells[i] = RangeCell{Outcome: RangeNotExist}
				case cond(sr.Range):
					row.Cells[i] = RangeCell{Outcome: RangeSatisfied, Range: sr.Range}
				default:
					row.Cells[i] = RangeCell{Outcome: RangeNo}
				}
			}
			out[j] = row
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	return out[:prefix], partial, nil
}

// AnyTagSearch returns every tag of the SUMY table whose range satisfies the
// condition — the "Any" mode of Figure 4.17. Non-satisfying tags are
// omitted.
func AnyTagSearch(s *Sumy, cond RangeCondition) []SumyRow {
	var out []SumyRow
	for _, r := range s.Rows {
		if cond(r.Range) {
			out = append(out, r)
		}
	}
	return out
}

// FrequencyResult is one row of an expression-value search: a tag's levels
// across the selected libraries (Figure 4.25).
type FrequencyResult struct {
	Tag    sage.TagID
	Values []float64 // parallel to the library selection
}

// FrequencySearch extracts expression values for every tag in
// [firstTag, lastTag] across the named libraries; nil names means all
// libraries. Tags absent from the dataset's universe are omitted; absent
// counts are 0.
func FrequencySearch(d *sage.Dataset, firstTag, lastTag sage.TagID, libNames []string) ([]FrequencyResult, []string, error) {
	if firstTag > lastTag {
		return nil, nil, fmt.Errorf("core: tag range %v-%v is inverted", firstTag, lastTag)
	}
	var rows []int
	var names []string
	if libNames == nil {
		for i, m := range d.Libs {
			rows = append(rows, i)
			names = append(names, m.Name)
		}
	} else {
		for _, n := range libNames {
			i, ok := d.LibraryRow(n)
			if !ok {
				return nil, nil, fmt.Errorf("core: unknown library %q", n)
			}
			rows = append(rows, i)
			names = append(names, n)
		}
	}
	var out []FrequencyResult
	for j, t := range d.Tags {
		if t < firstTag || t > lastTag {
			continue
		}
		vals := make([]float64, len(rows))
		for k, r := range rows {
			vals[k] = d.Expr[r][j]
		}
		out = append(out, FrequencyResult{Tag: t, Values: vals})
	}
	return out, names, nil
}

// SingleTagSearch extracts one tag's expression values across the named
// libraries (Figure 4.26).
func SingleTagSearch(d *sage.Dataset, tag sage.TagID, libNames []string) (FrequencyResult, []string, error) {
	res, names, err := FrequencySearch(d, tag, tag, libNames)
	if err != nil {
		return FrequencyResult{}, nil, err
	}
	if len(res) == 0 {
		return FrequencyResult{}, nil, fmt.Errorf("core: tag %v not in the dataset", tag)
	}
	return res[0], names, nil
}

package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gea/internal/exec"
	"gea/internal/exec/shard"
)

// DiffWith takes two SUMY tables and produces a GAP table over their
// common tags (the diff() operator of Section 3.2.2). For each common tag,
//
//	gap = (mu_hi - sigma_hi) - (mu_lo + sigma_lo)
//
// where "hi" is the SUMY table with the higher mean. If the (mu-sigma,
// mu+sigma) bands overlap — the quantity is not positive — the gap level is
// NULL (Figure 3.4). Otherwise the sign is positive when the *first* table
// has the higher mean and negative when it has the lower (Figure 3.5).
//
// One work unit is one tag of the first SUMY table examined; on budget
// exhaustion the tags differenced so far form a flagged partial GAP. Both
// tables are in tag order, so the per-tag join is a merge: each shard
// finds its start in b with one binary search and walks both tables
// forward. The joins evaluate through the shard substrate, so the result
// is bit-identical at any worker count.
func DiffWith(c *exec.Ctl, name string, a, b *Sumy) (_ *Gap, partial bool, err error) {
	sp := c.StartSpan("core.Diff")
	sp.SetInput("%s (%d rows) vs %s (%d rows)", a.Name, len(a.Rows), b.Name, len(b.Rows))
	defer c.EndSpan(sp, &partial, &err)
	// Row i of a owns out[i] and vals[i]; a row with no partner in b
	// keeps nil Values and is compacted away below.
	out := make([]GapRow, len(a.Rows))
	vals := make([]GapValue, len(a.Rows))
	prefix, partial, err := shard.For(c, len(a.Rows), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		j, _ := b.search(a.Rows[lo].Tag)
		for i := lo; i < hi; i++ {
			if err := c.Point(1); err != nil {
				return i - lo, err
			}
			ra := a.Rows[i]
			for j < len(b.Rows) && b.Rows[j].Tag < ra.Tag {
				j++
			}
			if j < len(b.Rows) && b.Rows[j].Tag == ra.Tag {
				vals[i] = gapOf(ra, b.Rows[j])
				out[i] = GapRow{Tag: ra.Tag, Values: vals[i : i+1 : i+1]}
			}
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	n := 0
	//lint:gea ctlcharge -- compaction of the already-metered shard prefix; every row was charged inside the kernel above
	for i := 0; i < prefix; i++ {
		if out[i].Values != nil {
			out[n] = out[i]
			n++
		}
	}
	g, err := NewGap(name, []string{"gap"}, out[:n])
	if err != nil {
		return nil, false, err
	}
	return g, partial, nil
}

// gapOf computes the gap level between a (first table) and b (second).
func gapOf(a, b SumyRow) GapValue {
	hi, lo := a, b
	sign := 1.0
	if b.Mean > a.Mean {
		hi, lo = b, a
		sign = -1.0
	}
	mag := (hi.Mean - hi.Std) - (lo.Mean + lo.Std)
	if mag <= 0 {
		return NullGap
	}
	return GapValue{V: sign * mag}
}

// GapPredicate decides whether a GAP row qualifies for selection.
type GapPredicate func(GapRow) bool

// SelectGap applies relational selection to a GAP table, producing another
// GAP table.
func SelectGap(name string, g *Gap, pred GapPredicate) (*Gap, error) {
	var rows []GapRow
	for _, r := range g.Rows {
		if pred(r) {
			rows = append(rows, r)
		}
	}
	return NewGap(name, g.Cols, rows)
}

// Negative holds when the gap value in column col is non-NULL and < 0 — the
// "keep only the tags with negative gap values" selection of case study 3.
func Negative(col int) GapPredicate {
	return func(r GapRow) bool { return !r.Values[col].Null && r.Values[col].V < 0 }
}

// Positive holds when the gap value in column col is non-NULL and > 0.
func Positive(col int) GapPredicate {
	return func(r GapRow) bool { return !r.Values[col].Null && r.Values[col].V > 0 }
}

// NonNull holds when the gap value in column col is non-NULL.
func NonNull(col int) GapPredicate {
	return func(r GapRow) bool { return !r.Values[col].Null }
}

// MagnitudeAtLeast holds when |gap| >= x in column col (NULLs excluded).
func MagnitudeAtLeast(col int, x float64) GapPredicate {
	return func(r GapRow) bool { return !r.Values[col].Null && math.Abs(r.Values[col].V) >= x }
}

// ProjectGap keeps only the named gap columns, in the given order (the
// projection operator on GAP tables).
func ProjectGap(name string, g *Gap, cols ...string) (*Gap, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := g.Col(c)
		if j < 0 {
			return nil, fmt.Errorf("core: gap %s has no column %q", g.Name, c)
		}
		idx[i] = j
	}
	rows := make([]GapRow, len(g.Rows))
	for i, r := range g.Rows {
		vals := make([]GapValue, len(idx))
		for k, j := range idx {
			vals[k] = r.Values[j]
		}
		rows[i] = GapRow{Tag: r.Tag, Values: vals}
	}
	return NewGap(name, cols, rows)
}

// MinusGap extracts the tags appearing in a but missing in b, keeping a's
// columns (Figure 3.6c; the unique-genes analysis of case study 4).
func MinusGap(name string, a, b *Gap) (*Gap, error) {
	var rows []GapRow
	for _, r := range a.Rows {
		if _, ok := b.Row(r.Tag); !ok {
			rows = append(rows, r)
		}
	}
	return NewGap(name, a.Cols, rows)
}

// IntersectGap extracts the common tags of a and b with the gap columns of
// both, a's first (Figure 3.6d).
func IntersectGap(name string, a, b *Gap) (*Gap, error) {
	cols := combineCols(a, b)
	var rows []GapRow
	for _, ra := range a.Rows {
		rb, ok := b.Row(ra.Tag)
		if !ok {
			continue
		}
		vals := make([]GapValue, 0, len(cols))
		vals = append(vals, ra.Values...)
		vals = append(vals, rb.Values...)
		rows = append(rows, GapRow{Tag: ra.Tag, Values: vals})
	}
	return NewGap(name, cols, rows)
}

// UnionGap combines all tags of a and b with the gap columns of both;
// values missing on one side are NULL.
func UnionGap(name string, a, b *Gap) (*Gap, error) {
	cols := combineCols(a, b)
	nullsA := make([]GapValue, len(a.Cols))
	nullsB := make([]GapValue, len(b.Cols))
	for i := range nullsA {
		nullsA[i] = NullGap
	}
	for i := range nullsB {
		nullsB[i] = NullGap
	}
	var rows []GapRow
	for _, ra := range a.Rows {
		vals := make([]GapValue, 0, len(cols))
		vals = append(vals, ra.Values...)
		if rb, ok := b.Row(ra.Tag); ok {
			vals = append(vals, rb.Values...)
		} else {
			vals = append(vals, nullsB...)
		}
		rows = append(rows, GapRow{Tag: ra.Tag, Values: vals})
	}
	for _, rb := range b.Rows {
		if _, ok := a.Row(rb.Tag); ok {
			continue
		}
		vals := make([]GapValue, 0, len(cols))
		vals = append(vals, nullsA...)
		vals = append(vals, rb.Values...)
		rows = append(rows, GapRow{Tag: rb.Tag, Values: vals})
	}
	return NewGap(name, cols, rows)
}

// combineCols builds the merged column list, disambiguating collisions with
// a "2_" prefix on b's side (the GUI labels them Gap1/Gap2).
func combineCols(a, b *Gap) []string {
	cols := make([]string, 0, len(a.Cols)+len(b.Cols))
	cols = append(cols, a.Cols...)
	used := make(map[string]bool, len(cols))
	for _, c := range cols {
		used[c] = true
	}
	for _, c := range b.Cols {
		name := c
		for used[name] {
			name = "2_" + name
		}
		used[name] = true
		cols = append(cols, name)
	}
	return cols
}

// TopGaps returns the x rows with the largest |gap| in column col, sorted by
// magnitude descending (ties by tag). NULL gaps are excluded. This is the
// "top gap table" of Section 4.4.3; the GUI's top-10 list in Figure 4.9 is
// ordered the same way.
func TopGaps(name string, g *Gap, col, x int) (*Gap, error) {
	if col < 0 || col >= len(g.Cols) {
		return nil, fmt.Errorf("core: gap %s has no column %d", g.Name, col)
	}
	if x < 0 {
		return nil, fmt.Errorf("core: negative top count %d", x)
	}
	var rows []GapRow
	for _, r := range g.Rows {
		if !r.Values[col].Null {
			rows = append(rows, r)
		}
	}
	slices.SortStableFunc(rows, func(a, b GapRow) int {
		if c := cmp.Compare(math.Abs(b.Values[col].V), math.Abs(a.Values[col].V)); c != 0 {
			return c
		}
		return cmp.Compare(a.Tag, b.Tag)
	})
	if x > len(rows) {
		x = len(rows)
	}
	// The rows come from g, so they already have g's arity; keep them in
	// display order, which setRows indexes.
	out := &Gap{Name: name, Cols: g.Cols}
	out.setRows(slices.Clone(rows[:x]))
	return out, nil
}

// CompareOp selects the set operation of a GAP comparison (Figure 4.13).
type CompareOp int

// Comparison operations.
const (
	OpUnion CompareOp = iota
	OpIntersect
	OpDifference
)

// String names the operation.
func (o CompareOp) String() string {
	switch o {
	case OpUnion:
		return "union"
	case OpIntersect:
		return "intersect"
	default:
		return "difference"
	}
}

// Compare combines two single-column GAP tables with the chosen set
// operation, producing the "compare gap table" the thirteen queries of
// Section 4.3.3 run against. Union and intersection yield two gap columns
// ("gap1" from a, "gap2" from b); difference keeps a's single column.
func Compare(name string, a, b *Gap, op CompareOp) (*Gap, error) {
	if len(a.Cols) != 1 || len(b.Cols) != 1 {
		return nil, fmt.Errorf("core: compare needs single-column gaps, got %d and %d columns",
			len(a.Cols), len(b.Cols))
	}
	a2, err := ProjectGap(a.Name, a, a.Cols[0])
	if err != nil {
		return nil, err
	}
	a2.Cols = []string{"gap1"}
	b2, err := ProjectGap(b.Name, b, b.Cols[0])
	if err != nil {
		return nil, err
	}
	b2.Cols = []string{"gap2"}
	switch op {
	case OpUnion:
		return UnionGap(name, a2, b2)
	case OpIntersect:
		return IntersectGap(name, a2, b2)
	default:
		g, err := MinusGap(name, a2, b2)
		if err != nil {
			return nil, err
		}
		return g, nil
	}
}

// CompareQuery is one of the thirteen follow-up queries the GEA offers on a
// compare gap table (Section 4.3.3). Positive gap values mean higher
// expression in SUMYa (the first summary of each diff); negative mean higher
// in SUMYb. Queries 1-5 apply to every comparison; 6-13 need both gap
// columns, so they apply to union and intersection only.
type CompareQuery int

// The thirteen queries, numbered as in the thesis.
const (
	QHigherInABoth  CompareQuery = 1  // higher in SUMYa in both GAPs
	QLowerInABoth   CompareQuery = 2  // lower in SUMYa in both GAPs
	QHigherInBBoth  CompareQuery = 3  // higher in SUMYb in both GAPs
	QLowerInBBoth   CompareQuery = 4  // lower in SUMYb in both GAPs
	QNonNullBoth    CompareQuery = 5  // non-null gap in both GAPs
	QHigherInAOnlyA CompareQuery = 6  // higher in SUMYa of GAPa, not of GAPb
	QLowerInAOnlyA  CompareQuery = 7  // lower in SUMYa of GAPa, not of GAPb
	QHigherInBOnlyA CompareQuery = 8  // higher in SUMYb of GAPa, not of GAPb
	QLowerInBOnlyA  CompareQuery = 9  // lower in SUMYb of GAPa, not of GAPb
	QHigherInAOnlyB CompareQuery = 10 // higher in SUMYa of GAPb, not of GAPa
	QLowerInAOnlyB  CompareQuery = 11 // lower in SUMYa of GAPb, not of GAPa
	QHigherInBOnlyB CompareQuery = 12 // higher in SUMYb of GAPb, not of GAPa
	QLowerInBOnlyB  CompareQuery = 13 // lower in SUMYb of GAPb, not of GAPa
)

// ApplyQuery filters a compare gap table with one of the thirteen queries.
func ApplyQuery(name string, g *Gap, q CompareQuery) (*Gap, error) {
	if q < 1 || q > 13 {
		return nil, fmt.Errorf("core: unknown query %d", q)
	}
	twoCol := len(g.Cols) >= 2
	if q >= 6 && !twoCol {
		return nil, fmt.Errorf("core: query %d needs both gap columns (union or intersection)", q)
	}
	pos := func(v GapValue) bool { return !v.Null && v.V > 0 }
	neg := func(v GapValue) bool { return !v.Null && v.V < 0 }
	pred := func(r GapRow) bool {
		v1 := r.Values[0]
		var v2 GapValue = NullGap
		if twoCol {
			v2 = r.Values[1]
		}
		switch q {
		case QHigherInABoth:
			if !twoCol {
				return pos(v1)
			}
			return pos(v1) && pos(v2)
		case QLowerInABoth, QHigherInBBoth:
			// Lower in SUMYa and higher in SUMYb are the same condition
			// (the gap sign encodes which summary is higher); the GUI lists
			// both phrasings.
			if !twoCol {
				return neg(v1)
			}
			return neg(v1) && neg(v2)
		case QLowerInBBoth:
			if !twoCol {
				return pos(v1)
			}
			return pos(v1) && pos(v2)
		case QNonNullBoth:
			if !twoCol {
				return !v1.Null
			}
			return !v1.Null && !v2.Null
		case QHigherInAOnlyA, QLowerInBOnlyA:
			return pos(v1) && !pos(v2)
		case QLowerInAOnlyA, QHigherInBOnlyA:
			return neg(v1) && !neg(v2)
		case QHigherInAOnlyB, QLowerInBOnlyB:
			return pos(v2) && !pos(v1)
		default: // QLowerInAOnlyB, QHigherInBOnlyB
			return neg(v2) && !neg(v1)
		}
	}
	return SelectGap(name, g, pred)
}

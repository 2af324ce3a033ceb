// Package core implements the GEA's two-world algebraic model (thesis
// Chapter 3), the system's primary contribution. Gene-expression clusters
// take on a dual identity:
//
//   - in the *extensional* world a cluster is an explicit enumeration of the
//     libraries it contains (an Enum, Figure 3.2);
//   - in the *intensional* world a cluster is its definition — the compact
//     tags and their ranges (a Sumy, Figure 3.3a) — and contrasts between
//     clusters are Gap tables (Figure 3.3b).
//
// Operators move between and within the worlds: Mine (fascicle production),
// Aggregate, Populate (with the entropy-indexed optimization of Section
// 3.3.2), Diff, selection (including Allen-relation range arithmetic),
// projection, and tag-level set operations. The output of every operator can
// be the input of another: that closure is what makes multi-step cluster
// analysis expressible.
//
// Each metered operator has one form, XWith, which takes the *exec.Ctl
// that meters it and reports whether a budget stop truncated its result.
// Pass exec.Background() for an unbounded run, or wrap the call in
// exec.Run to bound it by a context and exec.Limits.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"gea/internal/interval"
	"gea/internal/sage"
)

// Enum is a cluster in the extensional world: an explicit enumeration of
// libraries (rows) over a set of tags (columns), both referencing a shared
// base dataset. The original SAGE data set itself is a "degenerate" Enum
// covering every row and column.
type Enum struct {
	Name string
	// Data is the shared base dataset; Enums derived from the same base can
	// be combined with row-level set operations.
	Data *sage.Dataset
	// Rows are base-dataset row indices, ascending.
	Rows []int
	// Cols are base-dataset column indices, ascending (the cluster's tags).
	Cols []int
}

// FullEnum wraps an entire dataset as a degenerate cluster.
func FullEnum(name string, d *sage.Dataset) *Enum {
	rows := make([]int, d.NumLibraries())
	for i := range rows {
		rows[i] = i
	}
	cols := make([]int, d.NumTags())
	for j := range cols {
		cols[j] = j
	}
	return &Enum{Name: name, Data: d, Rows: rows, Cols: cols}
}

// NewEnum builds an Enum over explicit rows and columns of d, validating and
// normalizing (sorting, deduplicating) both.
func NewEnum(name string, d *sage.Dataset, rows, cols []int) (*Enum, error) {
	r, err := normalizeIndices(rows, d.NumLibraries(), "row")
	if err != nil {
		return nil, fmt.Errorf("core: enum %s: %v", name, err)
	}
	c, err := normalizeIndices(cols, d.NumTags(), "column")
	if err != nil {
		return nil, fmt.Errorf("core: enum %s: %v", name, err)
	}
	return &Enum{Name: name, Data: d, Rows: r, Cols: c}, nil
}

func normalizeIndices(xs []int, n int, what string) ([]int, error) {
	// Fast path: already strictly ascending and in range (the common case —
	// populate() and the mining pipeline produce sorted index sets).
	sortedUnique := true
	for i, x := range xs {
		if x < 0 || x >= n {
			return nil, fmt.Errorf("%s %d out of range [0, %d)", what, x, n)
		}
		if i > 0 && xs[i-1] >= x {
			sortedUnique = false
		}
	}
	out := make([]int, len(xs))
	copy(out, xs)
	if sortedUnique {
		return out, nil
	}
	sort.Ints(out)
	// Deduplicate in place.
	k := 0
	for i, x := range out {
		if i == 0 || out[k-1] != x {
			out[k] = x
			k++
		}
	}
	return out[:k], nil
}

// Size returns the number of libraries.
func (e *Enum) Size() int { return len(e.Rows) }

// NumTags returns the number of tag columns.
func (e *Enum) NumTags() int { return len(e.Cols) }

// LibraryNames lists the member libraries in row order.
func (e *Enum) LibraryNames() []string {
	out := make([]string, len(e.Rows))
	for i, r := range e.Rows {
		out[i] = e.Data.Libs[r].Name
	}
	return out
}

// Tags lists the Enum's tags in column order.
func (e *Enum) Tags() []sage.TagID {
	out := make([]sage.TagID, len(e.Cols))
	for i, c := range e.Cols {
		out[i] = e.Data.Tags[c]
	}
	return out
}

// Value returns the expression level at (member i, tag column j), both
// indices local to the Enum.
func (e *Enum) Value(i, j int) float64 { return e.Data.Expr[e.Rows[i]][e.Cols[j]] }

// Meta returns the metadata of member i.
func (e *Enum) Meta(i int) sage.LibraryMeta { return e.Data.Libs[e.Rows[i]] }

// SelectRows returns a new Enum keeping the rows whose metadata satisfies
// pred — relational selection on the auxiliary columns, e.g.
// σ tissueStatus='cancerous'.
func (e *Enum) SelectRows(name string, pred func(sage.LibraryMeta) bool) *Enum {
	var rows []int
	for _, r := range e.Rows {
		if pred(e.Data.Libs[r]) {
			rows = append(rows, r)
		}
	}
	return &Enum{Name: name, Data: e.Data, Rows: rows, Cols: e.Cols}
}

// sameBase guards row-level set operations.
func sameBase(a, b *Enum) error {
	if a.Data != b.Data {
		return fmt.Errorf("core: enums %s and %s have different base datasets", a.Name, b.Name)
	}
	return nil
}

// MinusRows returns the libraries of e not in f (columns from e). This is
// the control-group construction of case study 1:
// ENUM2 = σ cancerous(E_brain) - ENUM1.
func (e *Enum) MinusRows(name string, f *Enum) (*Enum, error) {
	if err := sameBase(e, f); err != nil {
		return nil, err
	}
	in := make(map[int]bool, len(f.Rows))
	for _, r := range f.Rows {
		in[r] = true
	}
	var rows []int
	for _, r := range e.Rows {
		if !in[r] {
			rows = append(rows, r)
		}
	}
	return &Enum{Name: name, Data: e.Data, Rows: rows, Cols: e.Cols}, nil
}

// IntersectRows returns the libraries present in both Enums (columns from e).
func (e *Enum) IntersectRows(name string, f *Enum) (*Enum, error) {
	if err := sameBase(e, f); err != nil {
		return nil, err
	}
	in := make(map[int]bool, len(f.Rows))
	for _, r := range f.Rows {
		in[r] = true
	}
	var rows []int
	for _, r := range e.Rows {
		if in[r] {
			rows = append(rows, r)
		}
	}
	return &Enum{Name: name, Data: e.Data, Rows: rows, Cols: e.Cols}, nil
}

// UnionRows returns the libraries present in either Enum (columns from e).
func (e *Enum) UnionRows(name string, f *Enum) (*Enum, error) {
	if err := sameBase(e, f); err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(e.Rows)+len(f.Rows))
	var rows []int
	for _, r := range e.Rows {
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	for _, r := range f.Rows {
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	sort.Ints(rows)
	return &Enum{Name: name, Data: e.Data, Rows: rows, Cols: e.Cols}, nil
}

// IsPure reports whether every member library has property p (Figure 4.8).
func (e *Enum) IsPure(p sage.Property) bool {
	for _, r := range e.Rows {
		if !e.Data.Libs[r].HasProperty(p) {
			return false
		}
	}
	return true
}

// SumyRow is one row of a SUMY table: a tag with the range, mean and
// standard deviation of its expression levels across the cluster, plus any
// additional aggregate columns.
type SumyRow struct {
	Tag   sage.TagID
	Range interval.Interval
	Mean  float64
	Std   float64
	// Extra holds optional additional aggregates ("median", ...).
	Extra map[string]float64
}

// Sumy is a cluster in the intensional world: its definition as per-tag
// ranges and moments.
type Sumy struct {
	Name string
	Rows []SumyRow // ascending by Tag
	// ExtraCols names the extra aggregate columns present on every row.
	ExtraCols []string
}

// NewSumy builds a Sumy from rows, sorting them by tag unless they already
// are.
func NewSumy(name string, rows []SumyRow, extraCols []string) *Sumy {
	if !slices.IsSortedFunc(rows, sumyTagOrder) {
		slices.SortStableFunc(rows, sumyTagOrder)
	}
	return &Sumy{Name: name, Rows: rows, ExtraCols: extraCols}
}

func sumyTagOrder(a, b SumyRow) int { return cmp.Compare(a.Tag, b.Tag) }

// Len returns the number of tags summarized.
func (s *Sumy) Len() int { return len(s.Rows) }

// Row returns the row for tag and whether it exists.
func (s *Sumy) Row(tag sage.TagID) (SumyRow, bool) {
	i, ok := s.search(tag)
	if !ok {
		return SumyRow{}, false
	}
	return s.Rows[i], true
}

// search binary-searches the tag-ordered rows for tag: its position, or
// where it would be inserted.
func (s *Sumy) search(tag sage.TagID) (int, bool) {
	return slices.BinarySearchFunc(s.Rows, tag, func(r SumyRow, t sage.TagID) int { return cmp.Compare(r.Tag, t) })
}

// Tags lists the summarized tags, ascending.
func (s *Sumy) Tags() []sage.TagID {
	out := make([]sage.TagID, len(s.Rows))
	for i, r := range s.Rows {
		out[i] = r.Tag
	}
	return out
}

// GapValue is one gap level; Null marks the overlap case of Figure 3.4.
type GapValue struct {
	V    float64
	Null bool
}

// NullGap is the NULL gap level.
var NullGap = GapValue{Null: true}

// String renders the value as the GUI does.
func (g GapValue) String() string {
	if g.Null {
		return "NULL"
	}
	return fmt.Sprintf("%.2f", g.V)
}

// GapRow is one row of a GAP table. A basic GAP table has a single value per
// tag; comparison results (Figure 3.6d) carry one per source GAP table.
type GapRow struct {
	Tag    sage.TagID
	Values []GapValue
}

// Gap summarizes the difference between SUMY tables (Section 3.2.2): "a GAP
// table must have one column on tag name and at least one column on gap
// levels".
type Gap struct {
	Name string
	// Cols names the gap-level columns (e.g. "gap", or "gap1"/"gap2" after
	// an intersection).
	Cols []string
	// Rows are ascending by Tag, except in a top-gap table, which keeps
	// display order (magnitude descending).
	Rows []GapRow

	// byTag indexes Rows exactly when they are not in tag order; a
	// tag-ordered table is binary-searched instead.
	byTag map[sage.TagID]int
}

// NewGap builds a Gap from rows, sorting them by tag unless they already
// are, and validating arity.
func NewGap(name string, cols []string, rows []GapRow) (*Gap, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("core: gap %s needs at least one gap column", name)
	}
	for _, r := range rows {
		if len(r.Values) != len(cols) {
			return nil, fmt.Errorf("core: gap %s: row %v has %d values, want %d",
				name, r.Tag, len(r.Values), len(cols))
		}
	}
	if !slices.IsSortedFunc(rows, gapTagOrder) {
		slices.SortStableFunc(rows, gapTagOrder)
	}
	return &Gap{Name: name, Cols: cols, Rows: rows}, nil
}

func gapTagOrder(a, b GapRow) int { return cmp.Compare(a.Tag, b.Tag) }

// setRows installs rows in their given order and indexes them by tag
// when that order is not tag order.
func (g *Gap) setRows(rows []GapRow) {
	g.Rows = rows
	g.byTag = nil
	if slices.IsSortedFunc(rows, gapTagOrder) {
		return
	}
	g.byTag = make(map[sage.TagID]int, len(rows))
	for i, r := range rows {
		g.byTag[r.Tag] = i
	}
}

// Len returns the number of tags.
func (g *Gap) Len() int { return len(g.Rows) }

// Row returns the row for tag and whether it exists.
func (g *Gap) Row(tag sage.TagID) (GapRow, bool) {
	i, ok := g.find(tag)
	if !ok {
		return GapRow{}, false
	}
	return g.Rows[i], true
}

// find returns the position of tag's row.
func (g *Gap) find(tag sage.TagID) (int, bool) {
	if g.byTag != nil {
		i, ok := g.byTag[tag]
		return i, ok
	}
	return slices.BinarySearchFunc(g.Rows, tag, func(r GapRow, t sage.TagID) int { return cmp.Compare(r.Tag, t) })
}

// ReorderRows rearranges the rows into the given tag order, which must be a
// permutation of the table's tags. Top-gap tables use display order
// (magnitude descending) rather than tag order; this restores it after
// operations that normalize to tag order.
func (g *Gap) ReorderRows(tags []sage.TagID) error {
	if len(tags) != len(g.Rows) {
		return fmt.Errorf("core: reorder of %s needs %d tags, got %d", g.Name, len(g.Rows), len(tags))
	}
	rows := make([]GapRow, 0, len(tags))
	seen := make(map[sage.TagID]bool, len(tags))
	for _, tg := range tags {
		if seen[tg] {
			return fmt.Errorf("core: reorder of %s repeats tag %v", g.Name, tg)
		}
		seen[tg] = true
		i, ok := g.find(tg)
		if !ok {
			return fmt.Errorf("core: reorder of %s references missing tag %v", g.Name, tg)
		}
		rows = append(rows, g.Rows[i])
	}
	g.setRows(rows)
	return nil
}

// Col returns the index of the named gap column, or -1.
func (g *Gap) Col(name string) int {
	for i, c := range g.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

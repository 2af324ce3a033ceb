// Package fascicle implements the Fascicles algorithm of Jagadish, Madar and
// Ng [JMN99] as used by the GEA (thesis Section 2.5.1). A fascicle is a set
// of libraries (records) that agree — within a per-attribute tolerance — on
// at least k "compact" attributes (tags). If a fascicle consists of only
// cancerous tissues, its compact tags collectively form a signature of those
// tissues and are candidate genes for clinical follow-up.
//
// Two miners are provided:
//
//   - LatticeWith: an exact level-wise search over library subsets. Compactness
//     is anti-monotone (adding a library can only widen a tag's range), so
//     subsets that fall below k compact tags prune their supersets, exactly
//     like infrequent itemsets in Apriori. It returns maximal fascicles.
//   - GreedyWith: the single-pass batched heuristic in the spirit of the
//     original paper's Phase 1, linear in the number of libraries and tags —
//     the complexity the thesis quotes in Section 3.3.1 — at the cost of
//     order sensitivity.
package fascicle

import (
	"fmt"
	"math"
	"sort"

	"gea/internal/exec"
	"gea/internal/sage"
)

// Params configures a mining run. They mirror the GUI of Figure 4.6: the
// number of compact attributes (k), the tolerance vector (the ".meta" file),
// the batch size, and the minimum number of libraries per fascicle.
type Params struct {
	// K is the minimum number of compact attributes a fascicle must have.
	K int
	// Tolerance is the per-tag compactness tolerance ("metadata"). Tags
	// absent from the map get tolerance 0.
	Tolerance map[sage.TagID]float64
	// MinSize is the minimum number of libraries per fascicle ("for a
	// fascicle to be frequent"); the case studies use 3.
	MinSize int
	// BatchSize is the number of libraries the greedy miner folds in per
	// batch; the lattice miner ignores it. Zero means all at once.
	BatchSize int
	// MaxCandidates bounds the lattice frontier as a safety valve; zero
	// means DefaultMaxCandidates.
	MaxCandidates int
}

// DefaultMaxCandidates bounds the lattice miner's per-level frontier.
const DefaultMaxCandidates = 200000

// ParamError is a typed mining-parameter validation failure; Param names
// the offending field so callers (CLI, service layer) can point at it.
type ParamError struct {
	Param string
	Msg   string
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("fascicle: invalid %s: %s", e.Param, e.Msg)
}

// Validate reports parameter errors against the dataset. Every failure
// is a *ParamError, caught up front instead of looping or panicking
// deep inside a miner.
func (p *Params) Validate(d *sage.Dataset) error {
	if d == nil || d.NumLibraries() == 0 {
		return &ParamError{Param: "dataset", Msg: "empty dataset"}
	}
	if p.K <= 0 {
		return &ParamError{Param: "K", Msg: "must be positive"}
	}
	if p.K > d.NumTags() {
		// "By definition, the number of compact attributes cannot exceed the
		// total number of attributes in the tissue type."
		return &ParamError{Param: "K", Msg: fmt.Sprintf("K=%d exceeds %d attributes", p.K, d.NumTags())}
	}
	if p.MinSize < 1 {
		return &ParamError{Param: "MinSize", Msg: "must be at least 1"}
	}
	if p.BatchSize < 0 {
		return &ParamError{Param: "BatchSize", Msg: "must not be negative"}
	}
	if p.MaxCandidates < 0 {
		return &ParamError{Param: "MaxCandidates", Msg: "must not be negative"}
	}
	for t, v := range p.Tolerance {
		if v < 0 || math.IsNaN(v) {
			return &ParamError{Param: "Tolerance", Msg: fmt.Sprintf("tag %s has tolerance %g; must be a non-negative number", t, v)}
		}
	}
	return nil
}

// Fascicle is one mined result: a set of library rows and the compact tags
// they agree on.
type Fascicle struct {
	// Rows are dataset row indices, ascending.
	Rows []int
	// CompactCols are dataset column indices of the compact tags, ascending.
	CompactCols []int
	// Min and Max give the value range of each compact column across Rows,
	// parallel to CompactCols.
	Min, Max []float64
}

// Size returns the number of libraries in the fascicle.
func (f *Fascicle) Size() int { return len(f.Rows) }

// NumCompact returns the number of compact tags.
func (f *Fascicle) NumCompact() int { return len(f.CompactCols) }

// LibraryNames resolves the member libraries' names against the dataset.
func (f *Fascicle) LibraryNames(d *sage.Dataset) []string {
	names := make([]string, len(f.Rows))
	for i, r := range f.Rows {
		names[i] = d.Libs[r].Name
	}
	return names
}

// CompactTags resolves the compact columns to TagIDs.
func (f *Fascicle) CompactTags(d *sage.Dataset) []sage.TagID {
	tags := make([]sage.TagID, len(f.CompactCols))
	for i, c := range f.CompactCols {
		tags[i] = d.Tags[c]
	}
	return tags
}

// IsPure reports whether every member library has the given property — the
// purity check of Figure 4.8 ("only the pure fascicles can be further
// analyzed").
func (f *Fascicle) IsPure(d *sage.Dataset, p sage.Property) bool {
	for _, r := range f.Rows {
		if !d.Libs[r].HasProperty(p) {
			return false
		}
	}
	return true
}

// Purity returns the properties the fascicle is pure for, in declaration
// order (cancer, normal, bulk tissue, cell line).
func (f *Fascicle) Purity(d *sage.Dataset) []sage.Property {
	var out []sage.Property
	for _, p := range []sage.Property{sage.PropCancer, sage.PropNormal, sage.PropBulkTissue, sage.PropCellLine} {
		if f.IsPure(d, p) {
			out = append(out, p)
		}
	}
	return out
}

// toleranceSlice aligns the tolerance map to dataset columns.
func toleranceSlice(d *sage.Dataset, tol map[sage.TagID]float64) []float64 {
	out := make([]float64, d.NumTags())
	for j, t := range d.Tags {
		out[j] = tol[t]
	}
	return out
}

// candidate is a lattice node: a library set with its surviving compact
// columns and their ranges.
type candidate struct {
	rows []int
	cols []int
	min  []float64
	max  []float64
}

// LatticeWith mines all maximal fascicles of d satisfying p exactly, by
// level-wise search with anti-monotone pruning.
//
// One work unit is one singleton initialisation, one candidate join
// attempt, or one subsumption scan. On budget exhaustion it returns the
// fascicles confirmed so far plus the current level's unsubsumed
// candidates, with partial = true.
func LatticeWith(c *exec.Ctl, d *sage.Dataset, p Params) (_ []*Fascicle, partial bool, err error) {
	sp := c.StartSpan("fascicle.Lattice")
	sp.SetInput("dataset: %d libraries x %d tags, k=%d", d.NumLibraries(), d.NumTags(), p.K)
	defer c.EndSpan(sp, &partial, &err)
	if err := p.Validate(d); err != nil {
		return nil, false, err
	}
	maxCand := p.MaxCandidates
	if maxCand == 0 {
		maxCand = DefaultMaxCandidates
	}
	tol := toleranceSlice(d, p.Tolerance)

	// cut assembles the flagged partial result when the budget expires:
	// everything emitted so far plus the current level's candidates that
	// no superset has (yet) subsumed.
	cut := func(results []*Fascicle, level []*candidate, subsumed []bool) []*Fascicle {
		//lint:gea ctlcharge -- assembles the flagged partial result after a stop; another charge would re-trip the exhausted budget
		for i, cd := range level {
			if (subsumed == nil || !subsumed[i]) && len(cd.rows) >= p.MinSize {
				results = append(results, &Fascicle{
					Rows: cd.rows, CompactCols: cd.cols, Min: cd.min, Max: cd.max,
				})
			}
		}
		sortFascicles(results)
		return results
	}

	// Level 1: singletons; every column is trivially compact.
	level := make([]*candidate, 0, d.NumLibraries())
	for i := 0; i < d.NumLibraries(); i++ {
		if err := c.Point(1); err != nil {
			if exec.IsBudget(err) {
				return cut(nil, level, nil), true, nil
			}
			return nil, false, err
		}
		cols := make([]int, d.NumTags())
		mn := make([]float64, d.NumTags())
		mx := make([]float64, d.NumTags())
		for j := range cols {
			cols[j] = j
			mn[j] = d.Expr[i][j]
			mx[j] = d.Expr[i][j]
		}
		level = append(level, &candidate{rows: []int{i}, cols: cols, min: mn, max: mx})
	}

	var results []*Fascicle
	for len(level) > 0 {
		subsumed := make([]bool, len(level))
		var next []*candidate
		// Join candidates sharing all but the last row (rows are sorted, so
		// the classic Apriori prefix join applies).
		byPrefix := map[string][]int{}
		for i, c := range level {
			byPrefix[prefixKey(c.rows)] = append(byPrefix[prefixKey(c.rows)], i)
		}
		for _, group := range byPrefix {
			for a := 0; a < len(group); a++ {
				for b := a + 1; b < len(group); b++ {
					if err := c.Point(1); err != nil {
						if exec.IsBudget(err) {
							return cut(results, level, subsumed), true, nil
						}
						return nil, false, err
					}
					ca, cb := level[group[a]], level[group[b]]
					merged := merge(ca, cb, tol, p.K)
					if merged == nil {
						continue
					}
					subsumed[group[a]] = true
					subsumed[group[b]] = true
					next = append(next, merged)
					if len(next) > maxCand {
						return nil, false, fmt.Errorf("fascicle: candidate frontier exceeded %d; raise K or MaxCandidates", maxCand)
					}
				}
			}
		}
		// A surviving superset subsumes *all* its sub-candidates at this
		// level, not just its two join parents.
		if len(next) > 0 {
			idx := map[string]int{}
			for i, c := range level {
				idx[rowsKey(c.rows)] = i
			}
			for _, sup := range next {
				if err := c.Point(1); err != nil {
					if exec.IsBudget(err) {
						return cut(results, level, subsumed), true, nil
					}
					return nil, false, err
				}
				forEachDropOne(sup.rows, func(sub []int) {
					if i, ok := idx[rowsKey(sub)]; ok {
						subsumed[i] = true
					}
				})
			}
		}
		for i, c := range level {
			if !subsumed[i] && len(c.rows) >= p.MinSize {
				results = append(results, &Fascicle{
					Rows: c.rows, CompactCols: c.cols, Min: c.min, Max: c.max,
				})
			}
		}
		level = next
	}
	sortFascicles(results)
	return results, false, nil
}

// merge combines two candidates sharing all but their last row; returns nil
// if the result has fewer than k compact columns.
func merge(a, b *candidate, tol []float64, k int) *candidate {
	rows := make([]int, len(a.rows)+1)
	copy(rows, a.rows)
	last := b.rows[len(b.rows)-1]
	// Keep rows sorted: a's last and b's last differ; order them.
	if last < rows[len(rows)-2] {
		rows[len(rows)-1] = rows[len(rows)-2]
		rows[len(rows)-2] = last
	} else {
		rows[len(rows)-1] = last
	}

	n := 0
	cols := make([]int, 0, minInt(len(a.cols), len(b.cols)))
	mns := make([]float64, 0, cap(cols))
	mxs := make([]float64, 0, cap(cols))
	ia, ib := 0, 0
	for ia < len(a.cols) && ib < len(b.cols) {
		switch {
		case a.cols[ia] < b.cols[ib]:
			ia++
		case a.cols[ia] > b.cols[ib]:
			ib++
		default:
			col := a.cols[ia]
			mn := a.min[ia]
			if b.min[ib] < mn {
				mn = b.min[ib]
			}
			mx := a.max[ia]
			if b.max[ib] > mx {
				mx = b.max[ib]
			}
			if mx-mn <= tol[col] {
				cols = append(cols, col)
				mns = append(mns, mn)
				mxs = append(mxs, mx)
				n++
			}
			ia++
			ib++
		}
	}
	if n < k {
		return nil
	}
	return &candidate{rows: rows, cols: cols, min: mns, max: mxs}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func prefixKey(rows []int) string {
	return rowsKey(rows[:len(rows)-1])
}

func rowsKey(rows []int) string {
	b := make([]byte, 0, 4*len(rows))
	for _, r := range rows {
		b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return string(b)
}

// forEachDropOne calls fn with each subset of rows missing one element.
func forEachDropOne(rows []int, fn func([]int)) {
	sub := make([]int, len(rows)-1)
	for drop := range rows {
		copy(sub, rows[:drop])
		copy(sub[drop:], rows[drop+1:])
		fn(sub)
	}
}

// GreedyWith mines fascicles with a single pass over the libraries in
// batches of p.BatchSize: each library joins the first existing cluster it
// keeps at or above k compact tags, else seeds a new cluster. It is linear
// in libraries and tags but order-dependent and not guaranteed maximal.
//
// One work unit is one library folded into the running clustering. A
// budget stop returns the clusters built from the libraries folded so
// far, flagged partial.
func GreedyWith(c *exec.Ctl, d *sage.Dataset, p Params) (_ []*Fascicle, partial bool, err error) {
	sp := c.StartSpan("fascicle.Greedy")
	sp.SetInput("dataset: %d libraries x %d tags, k=%d", d.NumLibraries(), d.NumTags(), p.K)
	defer c.EndSpan(sp, &partial, &err)
	if err := p.Validate(d); err != nil {
		return nil, false, err
	}
	tol := toleranceSlice(d, p.Tolerance)
	batch := p.BatchSize
	if batch <= 0 {
		batch = d.NumLibraries()
	}

	finish := func(clusters []*candidate) []*Fascicle {
		var results []*Fascicle
		//lint:gea ctlcharge -- materializes the clustering once at the end; it also runs after a budget stop, where a charge would re-trip the exhausted budget
		for _, c := range clusters {
			if len(c.rows) >= p.MinSize {
				sort.Ints(c.rows)
				results = append(results, &Fascicle{
					Rows: c.rows, CompactCols: c.cols, Min: c.min, Max: c.max,
				})
			}
		}
		sortFascicles(results)
		return results
	}

	var clusters []*candidate
	for start := 0; start < d.NumLibraries(); start += batch {
		end := start + batch
		if end > d.NumLibraries() {
			end = d.NumLibraries()
		}
		for i := start; i < end; i++ {
			if err := c.Point(1); err != nil {
				if exec.IsBudget(err) {
					return finish(clusters), true, nil
				}
				return nil, false, err
			}
			placed := false
			for _, c := range clusters {
				if tryAdd(c, d, i, tol, p.K) {
					placed = true
					break
				}
			}
			if !placed {
				cols := make([]int, d.NumTags())
				mn := make([]float64, d.NumTags())
				mx := make([]float64, d.NumTags())
				for j := range cols {
					cols[j] = j
					mn[j] = d.Expr[i][j]
					mx[j] = d.Expr[i][j]
				}
				clusters = append(clusters, &candidate{rows: []int{i}, cols: cols, min: mn, max: mx})
			}
		}
	}
	return finish(clusters), false, nil
}

// tryAdd extends cluster c with row i if at least k compact columns survive.
func tryAdd(c *candidate, d *sage.Dataset, i int, tol []float64, k int) bool {
	row := d.Expr[i]
	// First count survivors without mutating.
	n := 0
	for idx, col := range c.cols {
		mn, mx := c.min[idx], c.max[idx]
		v := row[col]
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if mx-mn <= tol[col] {
			n++
		}
	}
	if n < k {
		return false
	}
	cols := make([]int, 0, n)
	mns := make([]float64, 0, n)
	mxs := make([]float64, 0, n)
	for idx, col := range c.cols {
		mn, mx := c.min[idx], c.max[idx]
		v := row[col]
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if mx-mn <= tol[col] {
			cols = append(cols, col)
			mns = append(mns, mn)
			mxs = append(mxs, mx)
		}
	}
	c.rows = append(c.rows, i)
	c.cols, c.min, c.max = cols, mns, mxs
	return true
}

// sortFascicles orders results by size descending, then compact count
// descending, then first row — a stable, reproducible report order.
func sortFascicles(fs []*Fascicle) {
	sort.SliceStable(fs, func(a, b int) bool {
		if len(fs[a].Rows) != len(fs[b].Rows) {
			return len(fs[a].Rows) > len(fs[b].Rows)
		}
		if len(fs[a].CompactCols) != len(fs[b].CompactCols) {
			return len(fs[a].CompactCols) > len(fs[b].CompactCols)
		}
		return fs[a].Rows[0] < fs[b].Rows[0]
	})
}

package core

import (
	"fmt"
	"sort"

	"gea/internal/exec"
	"gea/internal/exec/shard"
	"gea/internal/sage"
)

// TagIndexes is a set of sorted per-tag column indexes over a dataset — the
// structure behind the optimized populate() of Section 3.3.2. Build it once
// on the top-entropy tags (see internal/indexsel) and share it across
// populate calls.
type TagIndexes struct {
	data    *sage.Dataset
	byCol   map[int][]indexEntry // sorted by value
	colList []int
}

// indexEntry is one (value, row) pair of a sorted column index. Entries
// are ordered by value, ties by row (BuildTagIndexes sorts stably over
// row-ascending input).
type indexEntry struct {
	V   float64
	Row int
}

// BuildTagIndexes creates sorted indexes on the given dataset columns.
func BuildTagIndexes(d *sage.Dataset, cols []int) (*TagIndexes, error) {
	ti := &TagIndexes{data: d, byCol: make(map[int][]indexEntry, len(cols))}
	for _, c := range cols {
		if c < 0 || c >= d.NumTags() {
			return nil, fmt.Errorf("core: index column %d out of range [0, %d)", c, d.NumTags())
		}
		if _, dup := ti.byCol[c]; dup {
			continue
		}
		entries := make([]indexEntry, d.NumLibraries())
		for i := range d.Expr {
			entries[i] = indexEntry{V: d.Expr[i][c], Row: i}
		}
		sort.SliceStable(entries, func(a, b int) bool { return entries[a].V < entries[b].V })
		ti.byCol[c] = entries
		ti.colList = append(ti.colList, c)
	}
	sort.Ints(ti.colList)
	return ti, nil
}

// NumIndexes returns how many columns carry indexes.
func (ti *TagIndexes) NumIndexes() int { return len(ti.byCol) }

// Columns returns the indexed column positions, ascending.
func (ti *TagIndexes) Columns() []int { return ti.colList }

// rangeRows returns the rows whose value in column c lies in [lo, hi].
func (ti *TagIndexes) rangeRows(c int, lo, hi float64) []int {
	entries := ti.byCol[c]
	start := sort.Search(len(entries), func(i int) bool { return entries[i].V >= lo })
	var rows []int
	for i := start; i < len(entries); i++ {
		if entries[i].V > hi {
			break
		}
		rows = append(rows, entries[i].Row)
	}
	return rows
}

// PopulateStats reports how much work a populate() call did, so the Table
// 3.2 experiment can relate index hits to saved effort.
type PopulateStats struct {
	// IndexesHit is the number of SUMY tags that had indexes (w in the
	// thesis's analysis).
	IndexesHit int
	// CandidateRows is how many rows survived the index intersection and
	// were verified against the remaining conditions (equals the total row
	// count when no index was hit).
	CandidateRows int
	// ConditionsChecked counts individual range-condition evaluations
	// actually performed.
	ConditionsChecked int
}

// PopulateOptions tune the populate() evaluation.
type PopulateOptions struct {
	// SimulateRowFetch charges the cost of materializing each examined row
	// (a full pass over its expression vector), modeling the storage read a
	// disk-resident DBMS performs per candidate row. The thesis's Table 3.2
	// measures populate() against DB2, where the sequential scan's dominant
	// cost is exactly that fetch; in-memory early-exit verification is
	// otherwise so cheap that index savings would be invisible in wall
	// time.
	SimulateRowFetch bool
	// Workers overrides the Ctl's worker count for the candidate
	// verification scan (<= 0 defers to it). Results are bit-identical
	// at any setting; see internal/exec/shard.
	Workers int
}

// popCond is one range conjunct of a populate() verification: column
// col of the dataset (or -1 for a tag outside the universe, which
// reads as 0) must lie in [lo, hi].
type popCond struct {
	col    int
	lo, hi float64
}

// PopulateWith finds all libraries of the dataset satisfying every tag
// range of the SUMY table — the populate() operator of Figure 3.1,
// converting a cluster from intensional to extensional form. Tags of the
// SUMY table absent from the dataset are treated as expression level 0.
//
// When idx is non-nil, the conjunction is evaluated index-first: each SUMY
// tag with an index contributes a candidate row set by range scan; the sets
// are intersected (smallest first) and only the surviving candidates are
// verified against the remaining conditions. With no index (or no hits) the
// operator degrades to the sequential scan.
//
// One work unit is one index range scan, one candidate set intersected,
// or one candidate row verified; on budget exhaustion the rows verified
// so far become an explicitly flagged partial ENUM.
func PopulateWith(c *exec.Ctl, name string, s *Sumy, d *sage.Dataset, idx *TagIndexes, opts PopulateOptions) (_ *Enum, st PopulateStats, partial bool, err error) {
	sp := c.StartSpan("core.Populate")
	sp.SetInput("sumy %s: %d conditions over %d libraries, indexed=%v", s.Name, s.Len(), d.NumLibraries(), idx != nil)
	defer c.EndSpan(sp, &partial, &err)
	if s.Len() == 0 {
		return nil, st, false, fmt.Errorf("core: populate %s: SUMY %s is empty", name, s.Name)
	}
	if idx != nil && idx.data != d {
		return nil, st, false, fmt.Errorf("core: populate %s: indexes were built on a different dataset", name)
	}

	// Split conditions into indexed and residual.
	var indexed, residual []popCond
	var cols []int
	//lint:gea ctlcharge -- condition split is O(|SUMY|) setup; the range scans and row checks it feeds are metered below
	for _, r := range s.Rows {
		cc := popCond{col: -1, lo: r.Range.Min, hi: r.Range.Max}
		if j, ok := d.TagColumn(r.Tag); ok {
			cc.col = j
			cols = append(cols, j)
		}
		if cc.col >= 0 && idx != nil {
			if _, ok := idx.byCol[cc.col]; ok {
				indexed = append(indexed, cc)
				continue
			}
		}
		residual = append(residual, cc)
	}
	st.IndexesHit = len(indexed)

	partialEnum := func(rows []int, cols []int) (*Enum, PopulateStats, bool, error) {
		e, err := NewEnum(name, d, rows, cols)
		if err != nil {
			return nil, st, false, err
		}
		return e, st, true, nil
	}

	var candidates []int
	if len(indexed) > 0 {
		// Gather candidate sets (sorted by row), intersect smallest-first
		// with a sorted merge.
		sets := make([][]int, len(indexed))
		for i, cd := range indexed {
			if err := c.Point(1); err != nil {
				if exec.IsBudget(err) {
					return partialEnum(nil, cols)
				}
				return nil, st, false, err
			}
			rows := idx.rangeRows(cd.col, cd.lo, cd.hi)
			sort.Ints(rows)
			sets[i] = rows
		}
		sort.Slice(sets, func(a, b int) bool { return len(sets[a]) < len(sets[b]) })
		candidates = append([]int(nil), sets[0]...)
		for _, set := range sets[1:] {
			if err := c.Point(1); err != nil {
				if exec.IsBudget(err) {
					return partialEnum(nil, cols)
				}
				return nil, st, false, err
			}
			if len(candidates) == 0 {
				break
			}
			kept := candidates[:0]
			i, j := 0, 0
			for i < len(candidates) && j < len(set) {
				switch {
				case candidates[i] < set[j]:
					i++
				case candidates[i] > set[j]:
					j++
				default:
					kept = append(kept, candidates[i])
					i++
					j++
				}
			}
			candidates = kept
		}
	} else {
		candidates = make([]int, d.NumLibraries())
		//lint:gea ctlcharge -- identity initialization; the verification loop below meters every candidate it produces
		for i := range candidates {
			candidates[i] = i
		}
	}
	st.CandidateRows = len(candidates)

	// Verify the surviving candidates through the shard substrate: each
	// kernel writes only its own per-candidate slots, so the kept rows
	// and per-row condition counts are bit-identical at any worker
	// count, and a budget stop yields the same flagged prefix the
	// sequential scan would have produced.
	keep := make([]bool, len(candidates))
	nchecked := make([]int, len(candidates))
	prefix, partial, err := shard.ForN(c, opts.Workers, len(candidates), 0,
		func(c *exec.Ctl, _, lo, hi int) (int, error) {
			var fetchSink float64
			for i := lo; i < hi; i++ {
				if err := c.Point(1); err != nil {
					_ = fetchSink
					return i - lo, err
				}
				r := candidates[i]
				if opts.SimulateRowFetch {
					for _, v := range d.Expr[r] {
						fetchSink += v
					}
				}
				ok := true
				for _, cd := range residual {
					nchecked[i]++
					v := 0.0
					if cd.col >= 0 {
						v = d.Expr[r][cd.col]
					}
					if v < cd.lo || v > cd.hi {
						ok = false
						break
					}
				}
				keep[i] = ok
			}
			_ = fetchSink
			return hi - lo, nil
		})
	if err != nil {
		return nil, st, false, err
	}
	var rows []int
	//lint:gea ctlcharge -- compaction of the already-metered shard prefix; every candidate was charged inside the kernel above
	for i := 0; i < prefix; i++ {
		st.ConditionsChecked += nchecked[i]
		if keep[i] {
			rows = append(rows, candidates[i])
		}
	}
	if partial {
		return partialEnum(rows, cols)
	}
	e, err := NewEnum(name, d, rows, cols)
	if err != nil {
		return nil, st, false, err
	}
	return e, st, false, nil
}

package ingest

import (
	"context"
	"fmt"
	"math"
	"sort"

	"gea/internal/clean"
	"gea/internal/core"
	"gea/internal/exec"
	"gea/internal/indexsel"
	"gea/internal/interval"
	"gea/internal/sage"
)

// DefaultIndexTags is how many top-entropy columns carry sorted indexes
// when ViewOptions.IndexTags is zero.
const DefaultIndexTags = 32

// ViewOptions configures the maintained view.
type ViewOptions struct {
	// Clean carries the cleaning thresholds; the zero value means the
	// thesis defaults (minimum tolerance 1, normalize to 300,000).
	Clean clean.Options
	// IndexTags is the number of top-entropy columns to keep sorted
	// indexes on; 0 means DefaultIndexTags, negative disables indexing.
	IndexTags int
	// SumyName names the maintained aggregate table; "" means "SAGE".
	SumyName string
}

func (o ViewOptions) normalized() (ViewOptions, error) {
	if o.Clean.MinTolerance == 0 && o.Clean.ScaleTo == 0 {
		o.Clean = clean.DefaultOptions()
	}
	if o.Clean.MinTolerance < 0 {
		return o, fmt.Errorf("ingest: negative MinTolerance %v", o.Clean.MinTolerance)
	}
	if o.Clean.ScaleTo == 0 {
		o.Clean.ScaleTo = clean.NormalTotal
	}
	if o.IndexTags == 0 {
		o.IndexTags = DefaultIndexTags
	}
	if o.SumyName == "" {
		o.SumyName = "SAGE"
	}
	return o, nil
}

// colMoments is the running per-column aggregate state: the exact
// left-to-right partial sums core.AggregateWith's kernel (stats.MeanStd
// plus a min/max scan) accumulates. Appending rows extends the same float
// addition sequence a fresh scan would perform, so mean/std/range derived
// from folded moments are bit-identical to a from-scratch aggregate.
type colMoments struct {
	sum, sumsq, lo, hi float64
}

// colEntropy is the running per-column histogram state behind
// stats.Entropy: integer bin counts over [lo, hi] at indexsel.EntropyBins
// resolution. While appended values stay inside [lo, hi] the bin of each
// old value is unchanged (same min, same width), so counts are maintained
// by increment; a value extending the range changes every bin boundary
// and forces a recount.
type colEntropy struct {
	counts []int
	lo, hi float64
}

// View is one immutable corpus generation plus the running state that
// lets the next generation be derived incrementally. Apply never mutates
// its receiver: readers holding a View see one consistent generation for
// as long as they keep the pointer.
type View struct {
	opts ViewOptions

	// Raw is the screened, uncleaned corpus in append order. It is
	// retained because a batch can promote a tag into the keep set,
	// which rescales every old library that expresses it — those
	// libraries re-clean from their raw counts.
	Raw *sage.Corpus
	// Cleaned is the deterministically cleaned corpus.
	Cleaned *sage.Corpus
	// Data is the dense dataset over the kept-tag universe.
	Data *sage.Dataset
	// Report mirrors clean.Report for the whole corpus.
	Report *clean.Report
	// Sumy is the maintained aggregate table over the full dataset,
	// bit-identical to core.Aggregate over FullEnum(Data).
	Sumy *core.Sumy
	// Ranked is the maintained entropy ranking, bit-identical to
	// indexsel.RankByEntropy(Data).
	Ranked []indexsel.RankedTag
	// Indexes are sorted column indexes over the top IndexTags entropy
	// columns, bit-identical to core.BuildTagIndexes on those columns.
	Indexes *core.TagIndexes

	maxCount map[sage.TagID]float64
	keep     map[sage.TagID]bool
	moments  map[sage.TagID]colMoments
	entropy  map[sage.TagID]*colEntropy
	sorted   map[sage.TagID][]core.IndexEntry
}

// Rebuild builds the view from scratch over raw.
func Rebuild(raw *sage.Corpus, opts ViewOptions) (*View, error) {
	v, _, err := RebuildWith(exec.Background(), raw, opts)
	return v, err
}

// RebuildCtx is Rebuild under execution governance. Budget exhaustion is
// an error, not a partial view — a half-maintained view would break the
// generation contract.
func RebuildCtx(ctx context.Context, raw *sage.Corpus, opts ViewOptions, lim exec.Limits) (*View, exec.Trace, error) {
	c := exec.New(ctx, lim)
	var v *View
	err := exec.Guard("ingest.Rebuild", "view", func() error {
		var err error
		v, _, err = RebuildWith(c, raw, opts)
		return err
	})
	if err != nil {
		v = nil
	}
	return v, c.Snapshot(false), err
}

// RebuildWith is the metered implementation; one work unit is one library
// cleaned or one column of derived state computed.
func RebuildWith(c *exec.Ctl, raw *sage.Corpus, opts ViewOptions) (_ *View, partial bool, err error) {
	sp := c.StartSpan("ingest.Rebuild")
	sp.SetInput("%d libraries", len(raw.Libraries))
	defer c.EndSpan(sp, &partial, &err)

	nopts, err := opts.normalized()
	if err != nil {
		return nil, false, err
	}
	v := &View{
		opts:     nopts,
		Raw:      &sage.Corpus{Libraries: append([]*sage.Library(nil), raw.Libraries...)},
		maxCount: map[sage.TagID]float64{},
		keep:     map[sage.TagID]bool{},
		moments:  map[sage.TagID]colMoments{},
		entropy:  map[sage.TagID]*colEntropy{},
		sorted:   map[sage.TagID][]core.IndexEntry{},
	}
	for _, l := range v.Raw.Libraries {
		if err := c.Point(1); err != nil {
			return nil, false, err
		}
		updateMax(v.maxCount, l)
	}
	//lint:gea ctlcharge -- keep-set derivation is O(tags) map bookkeeping between the charged library and column loops
	for t, m := range v.maxCount {
		if m > nopts.Clean.MinTolerance {
			v.keep[t] = true
		}
	}
	v.Report = &clean.Report{
		UniqueTagsBefore: len(v.maxCount),
		UniqueTagsAfter:  len(v.keep),
	}
	v.Cleaned = &sage.Corpus{}
	for i, l := range v.Raw.Libraries {
		if err := c.Point(1); err != nil {
			return nil, false, err
		}
		nl, lr := cleanOne(l, i+1, v.keep, nopts.Clean.ScaleTo)
		v.Cleaned.Libraries = append(v.Cleaned.Libraries, nl)
		v.Report.Libraries = append(v.Report.Libraries, lr)
	}
	v.Data = sage.BuildWithTags(v.Cleaned, sortedTags(v.keep))
	if err := v.deriveColumns(c, nil, 0, nil); err != nil {
		return nil, false, err
	}
	return v, false, nil
}

// Apply folds a screened batch into the view, returning the next
// generation's view. The receiver is left untouched.
func (v *View) Apply(libs []*sage.Library) (*View, error) {
	nv, _, err := v.ApplyWith(exec.Background(), libs)
	return nv, err
}

// ApplyCtx is Apply under execution governance; like RebuildCtx, budget
// exhaustion is an error rather than a partial view.
func (v *View) ApplyCtx(ctx context.Context, libs []*sage.Library, lim exec.Limits) (*View, exec.Trace, error) {
	c := exec.New(ctx, lim)
	var nv *View
	err := exec.Guard("ingest.Apply", "view", func() error {
		var err error
		nv, _, err = v.ApplyWith(c, libs)
		return err
	})
	if err != nil {
		nv = nil
	}
	return nv, c.Snapshot(false), err
}

// ApplyWith is the metered incremental maintenance kernel. The work it
// avoids relative to RebuildWith is the point of the package: libraries
// whose cleaned values cannot have changed are reused by pointer, and
// only dirty or new columns are recomputed from scratch — clean columns
// fold just the appended rows into their running state. The result is
// nevertheless bit-identical to RebuildWith over the concatenated corpus
// (pinned by the equivalence suite).
func (v *View) ApplyWith(c *exec.Ctl, libs []*sage.Library) (_ *View, partial bool, err error) {
	sp := c.StartSpan("ingest.Apply")
	sp.SetInput("%d libraries onto %d (%d tags)", len(libs), len(v.Raw.Libraries), len(v.keep))
	defer c.EndSpan(sp, &partial, &err)
	if len(libs) == 0 {
		return v, false, nil
	}
	oldN := len(v.Raw.Libraries)

	nv := &View{
		opts:     v.opts,
		Raw:      &sage.Corpus{Libraries: append(append([]*sage.Library(nil), v.Raw.Libraries...), libs...)},
		maxCount: make(map[sage.TagID]float64, len(v.maxCount)),
		keep:     make(map[sage.TagID]bool, len(v.keep)),
		moments:  map[sage.TagID]colMoments{},
		entropy:  map[sage.TagID]*colEntropy{},
		sorted:   map[sage.TagID][]core.IndexEntry{},
	}
	//lint:gea ctlcharge -- copy-on-write map clone, O(tags) bookkeeping
	for t, m := range v.maxCount {
		nv.maxCount[t] = m
	}
	//lint:gea ctlcharge -- copy-on-write map clone, O(tags) bookkeeping
	for t := range v.keep {
		nv.keep[t] = true
	}
	for _, l := range libs {
		if err := c.Point(1); err != nil {
			return nil, false, err
		}
		updateMax(nv.maxCount, l)
	}
	// Tags the batch promoted into the keep set. Each one rescales every
	// old library that expresses it (the tag re-enters that library's
	// normalization total), so those libraries re-clean from raw counts
	// and every column they express becomes dirty.
	newKept := map[sage.TagID]bool{}
	//lint:gea ctlcharge -- keep-set delta derivation is O(tags) map bookkeeping
	for t, m := range nv.maxCount {
		if !nv.keep[t] && m > nv.opts.Clean.MinTolerance {
			nv.keep[t] = true
			newKept[t] = true
		}
	}
	affected := map[int]bool{}
	//lint:gea ctlcharge -- O(libraries x promoted tags) membership probes; the re-clean of each affected library below is the charged work
	for i, l := range v.Raw.Libraries {
		for t := range newKept {
			if l.Counts[t] > 0 {
				affected[i] = true
				break
			}
		}
	}
	dirty := map[sage.TagID]bool{}
	//lint:gea ctlcharge -- dirty-column marking over the (usually few) affected libraries; the column recomputes it triggers are charged in deriveColumns
	for i := range affected {
		for t, cnt := range v.Raw.Libraries[i].Counts {
			if cnt > 0 && nv.keep[t] && !newKept[t] {
				dirty[t] = true
			}
		}
	}

	nv.Report = &clean.Report{
		UniqueTagsBefore: len(nv.maxCount),
		UniqueTagsAfter:  len(nv.keep),
		Libraries:        append([]clean.LibraryReport(nil), v.Report.Libraries...),
	}
	nv.Cleaned = &sage.Corpus{Libraries: append([]*sage.Library(nil), v.Cleaned.Libraries...)}
	for i := range v.Raw.Libraries {
		if !affected[i] {
			continue
		}
		if err := c.Point(1); err != nil {
			return nil, false, err
		}
		nl, lr := cleanOne(v.Raw.Libraries[i], i+1, nv.keep, nv.opts.Clean.ScaleTo)
		nv.Cleaned.Libraries[i] = nl
		nv.Report.Libraries[i] = lr
	}
	for k, l := range libs {
		if err := c.Point(1); err != nil {
			return nil, false, err
		}
		nl, lr := cleanOne(l, oldN+k+1, nv.keep, nv.opts.Clean.ScaleTo)
		nv.Cleaned.Libraries = append(nv.Cleaned.Libraries, nl)
		nv.Report.Libraries = append(nv.Report.Libraries, lr)
	}
	nv.Data = sage.BuildWithTags(nv.Cleaned, sortedTags(nv.keep))

	fresh := map[sage.TagID]bool{}
	//lint:gea ctlcharge -- set union, O(changed tags) bookkeeping
	for t := range newKept {
		fresh[t] = true
	}
	//lint:gea ctlcharge -- set union, O(changed tags) bookkeeping
	for t := range dirty {
		fresh[t] = true
	}
	if err := nv.deriveColumns(c, v, oldN, fresh); err != nil {
		return nil, false, err
	}
	return nv, false, nil
}

// deriveColumns (re)computes the per-column state and assembles the SUMY
// table, entropy ranking and sorted indexes. prev == nil means build
// everything from scratch; otherwise columns absent from fresh reuse
// prev's running state, folding in only rows [oldN, n).
func (nv *View) deriveColumns(c *exec.Ctl, prev *View, oldN int, fresh map[sage.TagID]bool) error {
	d := nv.Data
	n := d.NumLibraries()
	entropies := make([]float64, d.NumTags())
	sumyRows := make([]core.SumyRow, d.NumTags())
	col := make([]float64, n)
	for j, t := range d.Tags {
		if err := c.Point(1); err != nil {
			return err
		}
		for i := range d.Expr {
			col[i] = d.Expr[i][j]
		}
		var (
			m    colMoments
			e    *colEntropy
			ok   bool
			seed colMoments
		)
		if prev != nil && !fresh[t] {
			if seed, ok = prev.moments[t]; ok {
				m = foldMoments(seed, col[oldN:])
				e = foldEntropy(prev.entropy[t], col, oldN)
			}
		}
		if !ok {
			m = scanMoments(col)
			e = scanEntropy(col)
		}
		nv.moments[t] = m
		nv.entropy[t] = e
		entropies[j] = entropyOf(e, n)
		sumyRows[j] = sumyRowOf(t, m, n)
	}
	nv.Sumy = core.NewSumy(nv.opts.SumyName, sumyRows, nil)
	ranked, err := indexsel.RankFromEntropies(d.Tags, entropies)
	if err != nil {
		return err
	}
	nv.Ranked = ranked

	m := nv.opts.IndexTags
	if m < 0 {
		m = 0
	}
	if m > len(ranked) {
		m = len(ranked)
	}
	byCol := make(map[int][]core.IndexEntry, m)
	for _, rt := range ranked[:m] {
		if err := c.Point(1); err != nil {
			return err
		}
		j := rt.Col
		var run []core.IndexEntry
		if prev != nil && !fresh[rt.Tag] {
			if old, ok := prev.sorted[rt.Tag]; ok {
				run = mergeRun(old, d, j, oldN)
			}
		}
		if run == nil {
			run = sortRun(d, j)
		}
		nv.sorted[rt.Tag] = run
		byCol[j] = run
	}
	ti, err := core.TagIndexesFromSorted(d, byCol)
	if err != nil {
		return err
	}
	nv.Indexes = ti
	return nil
}

// updateMax folds one raw library into the per-tag maximum.
func updateMax(maxCount map[sage.TagID]float64, l *sage.Library) {
	for t, cnt := range l.Counts {
		if cnt > maxCount[t] {
			maxCount[t] = cnt
		}
	}
}

// sortedTags returns the keep set ascending — the dataset tag universe.
func sortedTags(keep map[sage.TagID]bool) []sage.TagID {
	tags := make([]sage.TagID, 0, len(keep))
	for t := range keep {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(a, b int) bool { return tags[a] < tags[b] })
	return tags
}

// sortedTotal sums a library's counts in ascending tag order. Unlike
// Library.Total (which follows map iteration order), the float addition
// sequence is fixed, so repeated runs — and the incremental and rebuild
// paths — produce the identical sum to the last ulp.
func sortedTotal(l *sage.Library) float64 {
	var sum float64
	for _, t := range l.Tags() {
		sum += l.Counts[t]
	}
	return sum
}

// cleanOne mirrors one library's pass through clean.Clean — drop tags
// outside keep, then normalize to scaleTo — but with deterministic
// (sorted-order) totals and a position-assigned ID, so any path that
// cleans the same raw library against the same keep set produces the
// bit-identical cleaned library and report row.
func cleanOne(raw *sage.Library, id int, keep map[sage.TagID]bool, scaleTo float64) (*sage.Library, clean.LibraryReport) {
	nl := sage.NewLibrary(raw.Meta)
	before := sortedTotal(raw)
	for t, cnt := range raw.Counts {
		if keep[t] {
			nl.Counts[t] = cnt
		}
	}
	after := sortedTotal(nl)
	lr := clean.LibraryReport{
		Name:         raw.Meta.Name,
		TotalBefore:  before,
		TotalAfter:   after,
		UniqueBefore: len(raw.Counts),
		UniqueAfter:  len(nl.Counts),
		ScaleFactor:  1,
	}
	if before > 0 {
		lr.RemovedFraction = 1 - after/before
	}
	if scaleTo > 0 && after > 0 {
		lr.ScaleFactor = scaleTo / after
		nl.Scale(lr.ScaleFactor)
	}
	nl.Meta.ID = id
	nl.Meta.TotalTags = sortedTotal(nl)
	nl.Meta.UniqueTags = len(nl.Counts)
	return nl, lr
}

// scanMoments runs the exact accumulation of core.AggregateWith's kernel
// over one full column: min/max from the first value, then stats.MeanStd's
// left-to-right sum and sum-of-squares.
func scanMoments(col []float64) colMoments {
	if len(col) == 0 {
		return colMoments{}
	}
	m := colMoments{lo: col[0], hi: col[0]}
	for _, x := range col {
		m.sum += x
		m.sumsq += x * x
		if x < m.lo {
			m.lo = x
		}
		if x > m.hi {
			m.hi = x
		}
	}
	return m
}

// foldMoments extends the running moments with appended values. The
// addition sequence (old partial sum, then new values in row order) is
// exactly the sequence a fresh scan over the grown column performs.
func foldMoments(m colMoments, appended []float64) colMoments {
	for _, x := range appended {
		m.sum += x
		m.sumsq += x * x
		if x < m.lo {
			m.lo = x
		}
		if x > m.hi {
			m.hi = x
		}
	}
	return m
}

// sumyRowOf derives the aggregate row from moments, mirroring
// stats.MeanStd's mean/variance expressions term for term.
func sumyRowOf(t sage.TagID, m colMoments, n int) core.SumyRow {
	fn := float64(n)
	mean := m.sum / fn
	va := m.sumsq/fn - mean*mean
	if va < 0 {
		va = 0
	}
	return core.SumyRow{
		Tag:   t,
		Range: interval.Interval{Min: m.lo, Max: m.hi},
		Mean:  mean,
		Std:   math.Sqrt(va),
	}
}

// scanEntropy builds the histogram state of stats.Entropy for one column:
// min/max, then bin counts at width (max-min)/bins.
func scanEntropy(col []float64) *colEntropy {
	e := &colEntropy{counts: make([]int, indexsel.EntropyBins)}
	if len(col) == 0 {
		return e
	}
	e.lo, e.hi = col[0], col[0]
	for _, x := range col[1:] {
		if x < e.lo {
			e.lo = x
		}
		if x > e.hi {
			e.hi = x
		}
	}
	if e.lo == e.hi {
		return e
	}
	width := (e.hi - e.lo) / float64(indexsel.EntropyBins)
	for _, x := range col {
		b := int((x - e.lo) / width)
		if b >= indexsel.EntropyBins {
			b = indexsel.EntropyBins - 1
		}
		e.counts[b]++
	}
	return e
}

// foldEntropy extends the histogram with rows [oldN, len(col)). While the
// appended values stay inside [lo, hi], every old value keeps its bin
// (same origin, same width) and the new values bin by the identical
// formula, so incrementing is exact; a value outside the range moves the
// bin boundaries for everyone, and the column is recounted.
func foldEntropy(e *colEntropy, col []float64, oldN int) *colEntropy {
	if e == nil || oldN == 0 || e.lo == e.hi {
		return scanEntropy(col)
	}
	for _, x := range col[oldN:] {
		if x < e.lo || x > e.hi {
			return scanEntropy(col)
		}
	}
	ne := &colEntropy{counts: append([]int(nil), e.counts...), lo: e.lo, hi: e.hi}
	width := (ne.hi - ne.lo) / float64(indexsel.EntropyBins)
	for _, x := range col[oldN:] {
		b := int((x - ne.lo) / width)
		if b >= indexsel.EntropyBins {
			b = indexsel.EntropyBins - 1
		}
		ne.counts[b]++
	}
	return ne
}

// entropyOf evaluates the histogram exactly as stats.Entropy does: bins
// in order, h -= p·log2(p).
func entropyOf(e *colEntropy, n int) float64 {
	if n == 0 || e.lo == e.hi {
		return 0
	}
	fn := float64(n)
	var h float64
	for _, c := range e.counts {
		if c == 0 {
			continue
		}
		p := float64(c) / fn
		h -= p * math.Log2(p)
	}
	return h
}

// sortRun builds one column's sorted index run exactly as
// core.BuildTagIndexes does: entries in row order, stable-sorted by value,
// yielding the unique (value, row)-lexicographic order.
func sortRun(d *sage.Dataset, j int) []core.IndexEntry {
	entries := make([]core.IndexEntry, d.NumLibraries())
	for i := range d.Expr {
		entries[i] = core.IndexEntry{V: d.Expr[i][j], Row: i}
	}
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].V < entries[b].V })
	return entries
}

// mergeRun extends a clean column's sorted run with the appended rows.
// Both inputs are (value, row)-lex ordered — the old run by invariant,
// the appended entries by stable-sorting row-ascending input — and every
// appended row index exceeds every old one, so a (value, row)-lex merge
// reproduces exactly what sortRun over the grown column would emit: that
// order is unique.
func mergeRun(old []core.IndexEntry, d *sage.Dataset, j, oldN int) []core.IndexEntry {
	n := d.NumLibraries()
	add := make([]core.IndexEntry, 0, n-oldN)
	for i := oldN; i < n; i++ {
		add = append(add, core.IndexEntry{V: d.Expr[i][j], Row: i})
	}
	sort.SliceStable(add, func(a, b int) bool { return add[a].V < add[b].V })
	out := make([]core.IndexEntry, 0, n)
	a, b := 0, 0
	for a < len(old) && b < len(add) {
		x, y := old[a], add[b]
		if x.V < y.V || (x.V == y.V && x.Row < y.Row) {
			out = append(out, x)
			a++
		} else {
			out = append(out, y)
			b++
		}
	}
	out = append(out, old[a:]...)
	out = append(out, add[b:]...)
	return out
}

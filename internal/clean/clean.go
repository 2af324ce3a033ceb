// Package clean implements the pre-processing and data-cleaning pipeline of
// thesis Section 4.2. SAGE libraries carry sequencing errors — an estimated
// 10% of each library's total tag count — that inflate dimensionality and
// add noise. The pipeline:
//
//  1. takes the union of all tags across the libraries;
//  2. removes every tag whose expression level is at or below a minimum
//     tolerance (1 in the thesis) in *all* libraries — a tag legitimately at
//     1 in one library is kept if any library expresses it more strongly;
//  3. normalizes every library to the same total tag count (300,000, the
//     estimated number of mRNAs per cell), leaving absent genes at zero.
//
// On the real corpus step 2 reduced ~350,000 unique tags to ~60,000 and
// removed 5-15% of each library's total count.
package clean

import (
	"fmt"
	"sort"

	"gea/internal/exec"
	"gea/internal/sage"
)

// NormalTotal is the common total every library is scaled to: the estimated
// 300,000 mRNAs per cell.
const NormalTotal = 300000

// Options configures the pipeline.
type Options struct {
	// MinTolerance: a tag is removed when its count is <= MinTolerance in
	// every library. The thesis default is 1.
	MinTolerance float64
	// ScaleTo is the common total to normalize to; 0 means NormalTotal.
	// Negative disables normalization.
	ScaleTo float64
}

// DefaultOptions returns the thesis's settings.
func DefaultOptions() Options {
	return Options{MinTolerance: 1, ScaleTo: NormalTotal}
}

// LibraryReport records what cleaning did to one library.
type LibraryReport struct {
	Name            string
	TotalBefore     float64
	TotalAfter      float64 // before normalization
	UniqueBefore    int
	UniqueAfter     int
	RemovedFraction float64 // fraction of total count removed
	ScaleFactor     float64 // normalization factor applied (1 if disabled)
}

// Report summarizes a cleaning run — the numbers Section 4.2 quotes.
type Report struct {
	UniqueTagsBefore int
	UniqueTagsAfter  int
	Libraries        []LibraryReport
}

// RemovedTagFraction returns the fraction of unique tags removed corpus-wide.
func (r *Report) RemovedTagFraction() float64 {
	if r.UniqueTagsBefore == 0 {
		return 0
	}
	return 1 - float64(r.UniqueTagsAfter)/float64(r.UniqueTagsBefore)
}

// Clean runs the pipeline on a copy of the corpus and returns the cleaned
// corpus plus the report. The input corpus is not modified.
func Clean(c *sage.Corpus, opts Options) (*sage.Corpus, *Report, error) {
	if len(c.Libraries) == 0 {
		return nil, nil, fmt.Errorf("clean: empty corpus")
	}
	return Corpus(exec.Background(), c, opts)
}

// Corpus is the metered implementation behind Clean, charging one work
// unit per library in each of its two passes. It cleans an empty corpus
// to an empty one, since an append store starts empty. A budget stop or
// cancellation is an error, never a partly cleaned corpus: cleaning is
// corpus-wide, so half a pass describes no generation.
func Corpus(c *exec.Ctl, corpus *sage.Corpus, opts Options) (*sage.Corpus, *Report, error) {
	if opts.MinTolerance < 0 {
		return nil, nil, fmt.Errorf("clean: negative MinTolerance %v", opts.MinTolerance)
	}
	scaleTo := opts.ScaleTo
	if scaleTo == 0 {
		scaleTo = NormalTotal
	}

	// Pass 1: per-tag maximum across libraries.
	maxCount := make(map[sage.TagID]float64)
	for _, l := range corpus.Libraries {
		if err := c.Point(1); err != nil {
			return nil, nil, err
		}
		for t, cnt := range l.Counts {
			if cnt > maxCount[t] {
				maxCount[t] = cnt
			}
		}
	}
	keep := make(map[sage.TagID]bool, len(maxCount))
	//lint:gea ctlcharge -- keep-set derivation is O(tags) map bookkeeping between the two charged library passes
	for t, m := range maxCount {
		if m > opts.MinTolerance {
			keep[t] = true
		}
	}

	rep := &Report{
		UniqueTagsBefore: len(maxCount),
		UniqueTagsAfter:  len(keep),
	}

	// Pass 2: rebuild libraries with surviving tags, then normalize.
	out := &sage.Corpus{}
	for _, l := range corpus.Libraries {
		if err := c.Point(1); err != nil {
			return nil, nil, err
		}
		nl := sage.NewLibrary(l.Meta)
		before := l.Total()
		for t, cnt := range l.Counts {
			if keep[t] {
				nl.Counts[t] = cnt
			}
		}
		after := nl.Total()
		lr := LibraryReport{
			Name:         l.Meta.Name,
			TotalBefore:  before,
			TotalAfter:   after,
			UniqueBefore: l.Unique(),
			UniqueAfter:  nl.Unique(),
			ScaleFactor:  1,
		}
		if before > 0 {
			lr.RemovedFraction = 1 - after/before
		}
		if scaleTo > 0 && after > 0 {
			lr.ScaleFactor = scaleTo / after
			nl.Scale(lr.ScaleFactor)
		}
		nl.RefreshMeta()
		rep.Libraries = append(rep.Libraries, lr)
		out.Libraries = append(out.Libraries, nl)
	}
	return out, rep, nil
}

// SingletonFraction reports, for diagnostic display, the fraction of a
// corpus's unique tags whose count is exactly 1 in every library — the error
// candidates ("more than 80% of the unique tags have a frequency of 1").
func SingletonFraction(c *sage.Corpus) float64 {
	maxCount := make(map[sage.TagID]float64)
	for _, l := range c.Libraries {
		for t, cnt := range l.Counts {
			if cnt > maxCount[t] {
				maxCount[t] = cnt
			}
		}
	}
	if len(maxCount) == 0 {
		return 0
	}
	singles := 0
	for _, m := range maxCount {
		if m <= 1 {
			singles++
		}
	}
	return float64(singles) / float64(len(maxCount))
}

// ToleranceVector builds the fascicle tolerance vector ("metadata") of
// Section 4.3.1.2: for each tag, percent/100 of the width of the tag's value
// range across the dataset. A percent of 10 reproduces the case studies.
func ToleranceVector(d *sage.Dataset, percent float64) (map[sage.TagID]float64, error) {
	if percent < 0 || percent > 100 {
		return nil, fmt.Errorf("clean: tolerance percent %v out of [0, 100]", percent)
	}
	tol := make(map[sage.TagID]float64, len(d.Tags))
	for j, t := range d.Tags {
		lo, hi := d.Expr[0][j], d.Expr[0][j]
		for i := 1; i < len(d.Expr); i++ {
			v := d.Expr[i][j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		tol[t] = (hi - lo) * percent / 100
	}
	return tol, nil
}

// TopVariableTags returns the n tags with the widest value ranges, for
// quick inspection of what drives the clustering. Ties break by tag order.
func TopVariableTags(d *sage.Dataset, n int) []sage.TagID {
	type tw struct {
		tag   sage.TagID
		width float64
	}
	tws := make([]tw, len(d.Tags))
	for j, t := range d.Tags {
		lo, hi := d.Expr[0][j], d.Expr[0][j]
		for i := 1; i < len(d.Expr); i++ {
			v := d.Expr[i][j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		tws[j] = tw{tag: t, width: hi - lo}
	}
	sort.SliceStable(tws, func(a, b int) bool { return tws[a].width > tws[b].width })
	if n > len(tws) {
		n = len(tws)
	}
	out := make([]sage.TagID, n)
	for i := 0; i < n; i++ {
		out[i] = tws[i].tag
	}
	return out
}

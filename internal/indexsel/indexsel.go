// Package indexsel implements the index-selection machinery of thesis
// Section 3.3.2, which optimizes the populate() operator. populate() is a
// conjunction of ~25,000 range conditions — far too many to index them all —
// so the GEA indexes only the m tags with the highest entropy and relies on
// a probabilistic guarantee: with n total tags and p tags in a SUMY table,
// the number of indexed tags hit follows Binomial(p, m/n), and m is chosen
// as the smallest value giving at least a 99.9% chance of w or more hits.
// Table 3.1 of the thesis tabulates that m for w = 1..10.
package indexsel

import (
	"fmt"
	"sort"

	"gea/internal/sage"
	"gea/internal/stats"
)

// DefaultConfidence is the probability threshold of the thesis (99.9%).
const DefaultConfidence = 0.999

// HitProbability returns P(at least w of the p SUMY tags are indexed) when m
// of the n tags carry indexes, under the thesis's uniform-inclusion model:
// the count of indexed SUMY tags is Binomial(p, m/n).
func HitProbability(n, p, m, w int) (float64, error) {
	if n <= 0 || p < 0 || p > n || m < 0 || m > n || w < 0 {
		return 0, fmt.Errorf("indexsel: invalid arguments n=%d p=%d m=%d w=%d", n, p, m, w)
	}
	return stats.BinomialTailAtLeast(p, w, float64(m)/float64(n)), nil
}

// IndicesRequired returns the smallest m such that HitProbability(n, p, m, w)
// is at least conf. With n=60000, p=25000, conf=0.999 it reproduces
// Table 3.1 exactly (w=1 -> 17, w=2 -> 23, ..., w=10 -> 55).
func IndicesRequired(n, p, w int, conf float64) (int, error) {
	if conf <= 0 || conf >= 1 {
		return 0, fmt.Errorf("indexsel: confidence %v out of (0, 1)", conf)
	}
	if w < 1 {
		return 0, fmt.Errorf("indexsel: w must be at least 1")
	}
	if p < w {
		return 0, fmt.Errorf("indexsel: cannot hit %d indices with only %d SUMY tags", w, p)
	}
	// HitProbability is non-decreasing in m, so binary search applies.
	lo, hi := w, n
	if ok, err := HitProbability(n, p, hi, w); err != nil {
		return 0, err
	} else if ok < conf {
		return 0, fmt.Errorf("indexsel: even m=n gives probability %v < %v", ok, conf)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		pr, err := HitProbability(n, p, mid, w)
		if err != nil {
			return 0, err
		}
		if pr >= conf {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// Table31Row is one row of Table 3.1.
type Table31Row struct {
	W int // indices hit (at least)
	M int // indices required
}

// Table31 computes the thesis's Table 3.1 for the given corpus parameters
// (n = 60000 total tags, p = 25000 SUMY tags in the thesis).
func Table31(n, p, maxW int, conf float64) ([]Table31Row, error) {
	rows := make([]Table31Row, 0, maxW)
	for w := 1; w <= maxW; w++ {
		m, err := IndicesRequired(n, p, w, conf)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table31Row{W: w, M: m})
	}
	return rows, nil
}

// RankedTag pairs a tag with its entropy score.
type RankedTag struct {
	Tag     sage.TagID
	Col     int // dataset column
	Entropy float64
}

// EntropyBins is the histogram resolution used when scoring tags.
const EntropyBins = 16

// RankByEntropy scores every tag of the dataset by the entropy of its
// expression values across libraries and returns them ranked, highest first.
// "Our heuristic is to pick the tags with the highest entropy, that is,
// highest variation."
func RankByEntropy(d *sage.Dataset) []RankedTag {
	ranked := make([]RankedTag, d.NumTags())
	col := make([]float64, d.NumLibraries())
	for j, tag := range d.Tags {
		for i := range d.Expr {
			col[i] = d.Expr[i][j]
		}
		ranked[j] = RankedTag{Tag: tag, Col: j, Entropy: stats.Entropy(col, EntropyBins)}
	}
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].Entropy > ranked[b].Entropy })
	return ranked
}

// TopEntropyTags returns the m highest-entropy tags of the dataset — the
// tags the GEA creates indexes for.
func TopEntropyTags(d *sage.Dataset, m int) []RankedTag {
	ranked := RankByEntropy(d)
	if m > len(ranked) {
		m = len(ranked)
	}
	if m < 0 {
		m = 0
	}
	return ranked[:m]
}

// Advise picks the index budget for a planned populate(): given the dataset
// (n tags), the expected SUMY size p, the desired number of index hits w and
// the confidence, it returns the top-m entropy tags with m from
// IndicesRequired.
func Advise(d *sage.Dataset, p, w int, conf float64) ([]RankedTag, error) {
	m, err := IndicesRequired(d.NumTags(), p, w, conf)
	if err != nil {
		return nil, err
	}
	return TopEntropyTags(d, m), nil
}

// Package xprofiler reimplements the NCBI SAGE web site's xProfiler tool
// (thesis Section 2.3.3), the comparator the GEA is positioned against for
// candidate-gene finding. The xProfiler "is designed for differential-type
// analyses, for pooling and comparing SAGE libraries": the user places
// libraries into two groups, the groups are pooled, and a statistical test
// developed for SAGE count data decides, per tag, whether the two pools
// differ significantly.
//
// We implement the Audic-Claverie test (Audic & Claverie, Genome Research
// 1997), the standard significance test for comparing SAGE tag counts: given
// x occurrences in a pool of total N1 and y in a pool of total N2, the
// probability of observing y given x under the null hypothesis of equal
// relative expression is
//
//	p(y|x) = (N2/N1)^y * (x+y)! / (x! y! (1+N2/N1)^(x+y+1))
//
// and the (one-sided) p-value sums p(k|x) over the tail. Everything is
// computed in log space.
//
// The thesis's criticism — "the user has to guess which SAGE libraries
// should form a group, and which two groups should be compared, in order to
// return meaningful results" — is exactly what fascicle mining automates;
// the benchmark harness contrasts the two approaches on recovering planted
// signature genes.
package xprofiler

import (
	"fmt"
	"math"
	"sort"

	"gea/internal/exec"
	"gea/internal/sage"
)

// Pool is the summed expression profile of a library group.
type Pool struct {
	Name   string
	Counts map[sage.TagID]float64
	Total  float64
}

// NewPool sums the named libraries of a corpus into one profile — the
// xProfiler's "pooling" step.
func NewPool(name string, c *sage.Corpus, libNames []string) (*Pool, error) {
	if len(libNames) == 0 {
		return nil, fmt.Errorf("xprofiler: pool %q has no libraries", name)
	}
	p := &Pool{Name: name, Counts: make(map[sage.TagID]float64)}
	for _, n := range libNames {
		l := c.ByName(n)
		if l == nil {
			return nil, fmt.Errorf("xprofiler: unknown library %q", n)
		}
		for t, v := range l.Counts {
			p.Counts[t] += v
		}
	}
	for _, v := range p.Counts {
		p.Total += v
	}
	if p.Total == 0 {
		return nil, fmt.Errorf("xprofiler: pool %q is empty", name)
	}
	return p, nil
}

// PoolByState pools all libraries of a corpus with the given tissue and
// neoplastic state (the typical xProfiler grouping, e.g. "normal colon" vs
// "cancerous colon").
func PoolByState(c *sage.Corpus, tissue string, state sage.NeoplasticState) (*Pool, error) {
	var names []string
	for _, l := range c.Libraries {
		if l.Meta.Tissue == tissue && l.Meta.State == state {
			names = append(names, l.Meta.Name)
		}
	}
	name := fmt.Sprintf("%s_%s", tissue, state)
	return NewPool(name, c, names)
}

// Result is one differentially expressed tag.
type Result struct {
	Tag    sage.TagID
	CountA float64 // raw count in pool A
	CountB float64 // raw count in pool B
	// RateA and RateB are per-million normalized rates.
	RateA, RateB float64
	// PValue is the two-sided Audic-Claverie p-value.
	PValue float64
	// HigherInA reports the direction of the difference.
	HigherInA bool
}

// Options configure a comparison.
type Options struct {
	// Alpha is the significance threshold on the two-sided p-value
	// (default 0.01).
	Alpha float64
	// MinCount skips tags whose count is below this in both pools
	// (default 2): singletons carry no statistical signal.
	MinCount float64
}

// CompareWith runs the pooled differential test of the xProfiler and
// returns the significant tags sorted by ascending p-value (ties by tag).
//
// One work unit is one tag tested. Tags are visited in sorted order, so a
// budget stop returns the significant tags found so far (sorted, flagged
// partial) from a deterministic prefix of the tag universe.
func CompareWith(c *exec.Ctl, a, b *Pool, opts Options) (_ []Result, partial bool, err error) {
	if a == nil || b == nil {
		return nil, false, fmt.Errorf("xprofiler: nil pool")
	}
	sp := c.StartSpan("xprofiler.Compare")
	sp.SetInput("%s (%d tags) vs %s (%d tags)", a.Name, len(a.Counts), b.Name, len(b.Counts))
	defer c.EndSpan(sp, &partial, &err)
	if opts.Alpha == 0 {
		opts.Alpha = 0.01
	}
	if opts.Alpha < 0 || opts.Alpha > 1 || math.IsNaN(opts.Alpha) {
		return nil, false, fmt.Errorf("xprofiler: alpha %v out of (0, 1]", opts.Alpha)
	}
	if math.IsNaN(opts.MinCount) || opts.MinCount < 0 {
		return nil, false, fmt.Errorf("xprofiler: min count %v invalid", opts.MinCount)
	}
	if opts.MinCount == 0 {
		opts.MinCount = 2
	}

	tagSet := map[sage.TagID]bool{}
	//lint:gea ctlcharge -- tag-universe union; the per-tag test loop below charges every tag collected here
	for t := range a.Counts {
		tagSet[t] = true
	}
	//lint:gea ctlcharge -- tag-universe union; the per-tag test loop below charges every tag collected here
	for t := range b.Counts {
		tagSet[t] = true
	}
	tags := make([]sage.TagID, 0, len(tagSet))
	//lint:gea ctlcharge -- set-to-slice materialization of the same tags the metered loop below visits
	for t := range tagSet {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })

	finish := func(out []Result, partial bool) ([]Result, bool, error) {
		sort.Slice(out, func(i, j int) bool {
			if out[i].PValue != out[j].PValue {
				return out[i].PValue < out[j].PValue
			}
			return out[i].Tag < out[j].Tag
		})
		return out, partial, nil
	}

	var out []Result
	for _, t := range tags {
		if err := c.Point(1); err != nil {
			if exec.IsBudget(err) {
				return finish(out, true)
			}
			return nil, false, err
		}
		x, y := a.Counts[t], b.Counts[t]
		if x < opts.MinCount && y < opts.MinCount {
			continue
		}
		p := TwoSidedP(int(math.Round(x)), int(math.Round(y)), a.Total, b.Total)
		if p > opts.Alpha {
			continue
		}
		out = append(out, Result{
			Tag: t, CountA: x, CountB: y,
			RateA:     1e6 * x / a.Total,
			RateB:     1e6 * y / b.Total,
			PValue:    p,
			HigherInA: x/a.Total > y/b.Total,
		})
	}
	return finish(out, false)
}

// logP returns ln p(y|x) under the Audic-Claverie null.
func logP(x, y int, n1, n2 float64) float64 {
	r := n2 / n1
	lgXY, _ := math.Lgamma(float64(x+y) + 1)
	lgX, _ := math.Lgamma(float64(x) + 1)
	lgY, _ := math.Lgamma(float64(y) + 1)
	return float64(y)*math.Log(r) + lgXY - lgX - lgY - float64(x+y+1)*math.Log1p(r)
}

// PGivenX returns p(y|x), the Audic-Claverie probability of seeing y counts
// in a pool of total n2 given x counts in a pool of total n1.
func PGivenX(x, y int, n1, n2 float64) float64 {
	if x < 0 || y < 0 || n1 <= 0 || n2 <= 0 {
		return 0
	}
	return math.Exp(logP(x, y, n1, n2))
}

// exactCutoff bounds the exact tail summation; above it the normal
// approximation to the conditional binomial is indistinguishable and far
// cheaper (raw SAGE counts reach the thousands).
const exactCutoff = 200

// TwoSidedP returns the two-sided p-value for observing counts (x, y) in
// pools of totals (n1, n2): twice the smaller tail of the conditional
// distribution of y given x+y (capped at 1). For x+y beyond a cutoff it
// switches to the normal approximation of the conditional
// Binomial(x+y, n2/(n1+n2)) distribution.
func TwoSidedP(x, y int, n1, n2 float64) float64 {
	if n1 <= 0 || n2 <= 0 {
		return 1
	}
	var lower, point float64
	if x+y <= exactCutoff {
		// Tail sums of p(k|x) over k <= y. The distribution over k is
		// proper (sums to 1 over k >= 0), so the upper tail is
		// 1 - lower + point.
		for k := 0; k <= y; k++ {
			lower += PGivenX(x, k, n1, n2)
		}
		point = PGivenX(x, y, n1, n2)
	} else {
		// y | x+y ~ Binomial(x+y, q) with q = n2/(n1+n2); normal
		// approximation with continuity correction.
		n := float64(x + y)
		q := n2 / (n1 + n2)
		mu := n * q
		sigma := math.Sqrt(n * q * (1 - q))
		if sigma == 0 {
			return 1
		}
		z := (float64(y) + 0.5 - mu) / sigma
		lower = normalCDF(z)
		point = 0
	}
	upper := 1 - lower + point
	p := 2 * math.Min(lower, upper)
	if p > 1 {
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// normalCDF is the standard normal CDF.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

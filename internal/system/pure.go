package system

import (
	"fmt"

	"gea/internal/clean"
	"gea/internal/core"
	"gea/internal/exec"
	"gea/internal/fascicle"
	"gea/internal/sage"
)

// fasciclePrefix is the naming rule for a mining run over dataset at k
// compact tags: <dataset><k/1000>k, or <dataset><k> below 1000 tags
// (the thesis's brain35k).
func fasciclePrefix(dataset string, k int) string {
	if k < 1000 {
		return fmt.Sprintf("%s%d", dataset, k)
	}
	return fmt.Sprintf("%s%dk", dataset, k/1000)
}

// fascicleNames names a mining run's n fascicles <prefix>_1 ...
// <prefix>_n, the stems core.MineWith names their SUMY and ENUM forms
// after.
func fascicleNames(prefix string, n int) []string {
	var names []string
	for i := 1; i <= n; i++ {
		names = append(names, fmt.Sprintf("%s_%d", prefix, i))
	}
	return names
}

// levelMiner mines one threshold of a pure-fascicle scan: the fascicles
// compact on k tags, with their names, index-aligned.
type levelMiner func(c *exec.Ctl, k int) (names []string, results []core.MineResult, partial bool, err error)

// scanPure is the strict-to-loose threshold scan of the case studies:
// it mines at k = 75 % of numTags, then 70 %, ... down to 45 %, and
// returns the most compact fascicle pure for prop at the first level
// that has one, with that level's k (the threshold the thesis keeps in
// CDInfo). One Ctl spans the whole scan, so a budget covers the search
// as a whole, not each level separately. A search has no usable
// partial value: a budget that runs out before a pure fascicle appears
// is an error satisfying errors.Is(err, exec.ErrBudget). dataset only
// labels the errors.
func scanPure(c *exec.Ctl, dataset string, numTags int, prop sage.Property, mine levelMiner) (string, int, bool, error) {
	sawPartial := false
	for kpct := 75; kpct >= 45; kpct -= 5 {
		k := numTags * kpct / 100
		names, results, partial, err := mine(c, k)
		if err != nil {
			return "", 0, sawPartial, err
		}
		sawPartial = sawPartial || partial
		best, bestCompact := "", -1
		for i := range results {
			r := &results[i]
			if r.Enum.IsPure(prop) && r.Fascicle.NumCompact() > bestCompact {
				bestCompact, best = r.Fascicle.NumCompact(), names[i]
			}
		}
		if best != "" {
			return best, k, sawPartial, nil
		}
		if partial {
			// The budget ran out mid-scan; looser thresholds would only
			// mine against an already-exhausted budget.
			return "", 0, true, fmt.Errorf("system: work budget exhausted before a pure %v fascicle was found in %q: %w",
				prop, dataset, exec.ErrBudget)
		}
	}
	return "", 0, sawPartial, fmt.Errorf("system: no pure %v fascicle found in %q at any threshold", prop, dataset)
}

// PureQuery is FindPureFascicle as a read-only query over one
// generation's snapshot, run through CachedQueryCtx: it subsets the
// snapshot to Tissue, builds the tolerance vector at TolerancePct, and
// runs the same threshold scan under the plain name prefix. It
// registers nothing, so on the same corpus it names the fascicle a
// fresh session's FindPureFascicle names, at the same units. Its
// fields are plain data and the whole cache key.
type PureQuery struct {
	Tissue       string
	TolerancePct float64
	Prop         sage.Property
	MinSize      int
	Algorithm    core.Algorithm
}

// Compute is the query's CachedQueryCtx compute; its value is the pure
// fascicle's name.
func (q PureQuery) Compute(c *exec.Ctl, snap Snapshot) (_ any, _ int64, partial bool, err error) {
	sp := c.StartSpan("system.FindPureFascicle")
	sp.SetInput("dataset %s, prop=%v, minSize=%d", q.Tissue, q.Prop, q.MinSize)
	defer c.EndSpan(sp, &partial, &err)
	d, err := snap.Data.SubsetByTissue(q.Tissue)
	if err != nil {
		return nil, 0, false, err
	}
	tol, err := clean.ToleranceVector(d, q.TolerancePct)
	if err != nil {
		return nil, 0, false, err
	}
	name, _, partial, err := scanPure(c, q.Tissue, d.NumTags(), q.Prop, func(c *exec.Ctl, k int) ([]string, []core.MineResult, bool, error) {
		prefix := fasciclePrefix(q.Tissue, k)
		results, partial, err := core.MineWith(c, prefix, d, fascicle.Params{K: k, Tolerance: tol, MinSize: q.MinSize}, q.Algorithm)
		return fascicleNames(prefix, len(results)), results, partial, err
	})
	if err != nil {
		return nil, 0, partial, err
	}
	return name, int64(len(name)), partial, nil
}

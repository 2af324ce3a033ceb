package cluster

import (
	"fmt"

	"gea/internal/exec"
	"gea/internal/exec/shard"
)

// CASTConfig configures the Cluster Affinity Search Technique of Ben-Dor,
// Shamir and Yakhini [DSY99] (thesis Section 2.3.2) — the baseline the
// thesis highlights for determining cluster boundaries "without human
// intervention": the number of clusters is an output, not a parameter.
type CASTConfig struct {
	// T is the affinity threshold in [0, 1]: a point belongs to the open
	// cluster while its average affinity to the cluster is at least T.
	T float64
	// Affinity measures similarity in [0, 1]; nil means the correlation
	// affinity (1 + Pearson)/2.
	Affinity func(a, b []float64) float64
	// MaxIters bounds the add/remove stabilization loop per cluster
	// (default 100).
	MaxIters int
}

// CorrelationAffinity maps Pearson correlation to [0, 1].
func CorrelationAffinity(a, b []float64) float64 {
	d := CorrelationDistance(a, b) // 1 - r, in [0, 2]
	return 1 - d/2
}

// CASTWith clusters the rows and returns per-row labels 0..k-1; k is
// determined by the algorithm. The classic formulation alternates adding
// the highest-affinity outside element and removing the lowest-affinity
// inside element until the open cluster stabilizes, then closes it and
// starts the next with the unassigned elements.
//
// One work unit is one affinity pair computed or one add/remove
// stabilization iteration; a budget stop returns the labels assigned so
// far (unassigned rows stay -1), flagged partial.
func CASTWith(c *exec.Ctl, rows [][]float64, cfg CASTConfig) (_ []int, partial bool, err error) {
	sp := c.StartSpan("cluster.CAST")
	sp.SetInput("%d rows, T=%v", len(rows), cfg.T)
	defer c.EndSpan(sp, &partial, &err)
	n := len(rows)
	if _, err := validateRows("CAST", rows); err != nil {
		return nil, false, err
	}
	if cfg.T < 0 || cfg.T > 1 || badNumber(cfg.T) {
		return nil, false, &ParamError{Op: "CAST", Param: "T",
			Msg: fmt.Sprintf("threshold %v out of [0, 1]", cfg.T)}
	}
	aff := cfg.Affinity
	if aff == nil {
		aff = CorrelationAffinity
	}
	maxIters := cfg.MaxIters
	if maxIters <= 0 {
		maxIters = 100
	}

	// Precompute the affinity matrix.
	am := make([][]float64, n)
	//lint:gea ctlcharge -- matrix allocation; every affinity pair is charged in the computation loop below
	for i := range am {
		am[i] = make([]float64, n)
		am[i][i] = 1
	}
	// The affinity pairs are independent, so the matrix fills through
	// the shard substrate over a flattened pair index; each pair writes
	// only its own two mirrored cells. The affinity function must be a
	// pure function of its two vectors.
	pi, pj := trianglePairs(n)
	_, affPartial, err := shard.For(c, len(pi), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for p := lo; p < hi; p++ {
			if err := c.Point(1); err != nil {
				return p - lo, err
			}
			i, j := pi[p], pj[p]
			a := aff(rows[i], rows[j])
			am[i][j] = a
			am[j][i] = a
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	if affPartial {
		// No labels can be assigned from a half-computed matrix.
		all := make([]int, n)
		//lint:gea ctlcharge -- constant fill of the flagged partial result after the budget already stopped the run
		for i := range all {
			all[i] = -1
		}
		return all, true, nil
	}

	labels := make([]int, n)
	//lint:gea ctlcharge -- label initialization; stabilization iterations are metered below
	for i := range labels {
		labels[i] = -1
	}
	unassigned := n
	cluster := 0
	for unassigned > 0 {
		if err := c.Point(1); err != nil {
			if exec.IsBudget(err) {
				return labels, true, nil
			}
			return nil, false, err
		}
		// Open a cluster with the unassigned element of maximum total
		// affinity to the other unassigned elements.
		seed, best := -1, -1.0
		for i := 0; i < n; i++ {
			if labels[i] != -1 {
				continue
			}
			var sum float64
			for j := 0; j < n; j++ {
				if labels[j] == -1 && j != i {
					sum += am[i][j]
				}
			}
			if sum > best {
				best = sum
				seed = i
			}
		}
		open := map[int]bool{seed: true}
		// a[i] = total affinity of i to the open cluster.
		a := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = am[i][seed]
		}

		for iter := 0; iter < maxIters; iter++ {
			if err := c.Point(1); err != nil {
				if exec.IsBudget(err) {
					// The open cluster is abandoned; committed labels stand.
					return labels, true, nil
				}
				return nil, false, err
			}
			changed := false
			// ADD: the unassigned outside element with maximum affinity, if
			// it meets the threshold.
			addIdx, addAff := -1, -1.0
			for i := 0; i < n; i++ {
				if labels[i] != -1 || open[i] {
					continue
				}
				if avg := a[i] / float64(len(open)); avg >= cfg.T && avg > addAff {
					addAff = avg
					addIdx = i
				}
			}
			if addIdx >= 0 {
				open[addIdx] = true
				for i := 0; i < n; i++ {
					a[i] += am[i][addIdx]
				}
				changed = true
			}
			// REMOVE: the inside element with minimum affinity, if it falls
			// below the threshold (never empty the cluster).
			if len(open) > 1 {
				rmIdx, rmAff := -1, 2.0
				for i := range open {
					avg := (a[i] - am[i][i]) / float64(len(open)-1)
					if avg < cfg.T && avg < rmAff {
						rmAff = avg
						rmIdx = i
					}
				}
				if rmIdx >= 0 {
					delete(open, rmIdx)
					for i := 0; i < n; i++ {
						a[i] -= am[i][rmIdx]
					}
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		for i := range open {
			labels[i] = cluster
			unassigned--
		}
		cluster++
	}
	return labels, false, nil
}

// NumClusters returns the number of distinct non-negative labels.
func NumClusters(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		if l >= 0 {
			seen[l] = true
		}
	}
	return len(seen)
}

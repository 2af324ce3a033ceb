package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"gea/internal/exec"
	"gea/internal/exec/shard"
)

// KMeansResult holds a k-means clustering.
type KMeansResult struct {
	Labels    []int       // cluster of each row
	Centroids [][]float64 // k centroids
	Inertia   float64     // sum of squared distances to assigned centroids
	Iters     int         // iterations until convergence
}

// KMeansWith clusters rows into k groups with Lloyd's algorithm, seeded by
// k-means++ from the given source. It is the "top-down" method of
// Section 2.3.1 where "the user pre-defines the number of clusters ... the
// clusters are initially assigned randomly and the genes are regrouped
// iteratively until they are optimally clustered".
//
// One work unit is one row visited during seeding or assignment; a budget
// stop returns the current labels and centroids, flagged partial.
func KMeansWith(c *exec.Ctl, rows [][]float64, k int, rng *rand.Rand, maxIters int) (_ *KMeansResult, partial bool, err error) {
	sp := c.StartSpan("cluster.KMeans")
	sp.SetInput("%d rows, k=%d", len(rows), k)
	defer c.EndSpan(sp, &partial, &err)
	n := len(rows)
	dim, err := validateRows("KMeans", rows)
	if err != nil {
		return nil, false, err
	}
	if k < 1 || k > n {
		return nil, false, &ParamError{Op: "KMeans", Param: "k",
			Msg: fmt.Sprintf("k=%d out of range [1, %d]", k, n)}
	}
	if rng == nil {
		return nil, false, &ParamError{Op: "KMeans", Param: "rng", Msg: "random source required"}
	}
	if maxIters <= 0 {
		maxIters = 100
	}

	centroids, stop := kmeansPlusPlusInit(c, rows, k, rng)
	labels := make([]int, n)
	res := &KMeansResult{Labels: labels, Centroids: centroids}
	finish := func(partial bool) (*KMeansResult, bool, error) {
		var inertia float64
		//lint:gea ctlcharge -- single closing pass; it also runs after a budget stop, where a charge would re-trip the exhausted budget
		for i, r := range rows {
			inertia += sqDist(r, res.Centroids[labels[i]])
		}
		res.Inertia = inertia
		return res, partial, nil
	}
	if stop != nil {
		if exec.IsBudget(stop) {
			// Seeding was cut short: pad with copies of the first seed so
			// the flagged partial result still has k centroids.
			//lint:gea ctlcharge -- bounded by k; pads the partial result after the budget already stopped the run
			for len(res.Centroids) < k {
				res.Centroids = append(res.Centroids, append([]float64{}, res.Centroids[0]...))
			}
			return finish(true)
		}
		return nil, false, stop
	}

	next := make([]int, n)
	for iter := 0; iter < maxIters; iter++ {
		// Assignment: each row's nearest centroid is independent of every
		// other row's, so the scan evaluates through the shard substrate
		// into per-row slots; the argmin keeps the sequential loop's
		// first-minimum tie-breaking.
		prefix, asgPartial, err := shard.For(c, n, 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				if err := c.Point(1); err != nil {
					return i - lo, err
				}
				best, bestD := 0, math.Inf(1)
				for ci := range centroids {
					d := sqDist(rows[i], centroids[ci])
					if d < bestD {
						bestD = d
						best = ci
					}
				}
				next[i] = best
			}
			return hi - lo, nil
		})
		if err != nil {
			return nil, false, err
		}
		changed := false
		for i := 0; i < prefix; i++ {
			if labels[i] != next[i] {
				labels[i] = next[i]
				changed = true
			}
		}
		if asgPartial {
			return finish(true)
		}
		res.Iters = iter + 1
		// Recompute centroids.
		counts := make([]int, k)
		next := make([][]float64, k)
		for c := range next {
			next[c] = make([]float64, dim)
		}
		for i, r := range rows {
			c := labels[i]
			counts[c]++
			for j, v := range r {
				next[c][j] += v
			}
		}
		for c := range next {
			if counts[c] == 0 {
				// Empty cluster: reseed at the farthest point, a standard
				// Lloyd's repair.
				far, farD := 0, -1.0
				for i, r := range rows {
					d := sqDist(r, centroids[labels[i]])
					if d > farD {
						farD = d
						far = i
					}
				}
				copy(next[c], rows[far])
				continue
			}
			for j := range next[c] {
				next[c][j] /= float64(counts[c])
			}
		}
		centroids = next
		res.Centroids = centroids
		if !changed && iter > 0 {
			break
		}
	}
	return finish(false)
}

// kmeansPlusPlusInit seeds centroids with the k-means++ strategy. The
// returned error, if any, is the Ctl's stop condition; at least one
// centroid is always produced.
func kmeansPlusPlusInit(ctl *exec.Ctl, rows [][]float64, k int, rng *rand.Rand) ([][]float64, error) {
	n := len(rows)
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64{}, rows[first]...))
	d2 := make([]float64, n)
	for len(centroids) < k {
		// The per-row distances are embarrassingly parallel; the weighted
		// sum that seeds the next pick stays sequential so its floating-
		// point rounding — and therefore the chosen seed — is identical
		// at any worker count.
		_, partial, err := shard.For(ctl, n, 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				if err := c.Point(1); err != nil {
					return i - lo, err
				}
				best := math.Inf(1)
				for _, cent := range centroids {
					if d := sqDist(rows[i], cent); d < best {
						best = d
					}
				}
				d2[i] = best
			}
			return hi - lo, nil
		})
		if err != nil {
			return centroids, err
		}
		if partial {
			// The round was cut short; the caller pads the seeds already
			// chosen into a flagged partial result.
			return centroids, ctl.Err()
		}
		var sum float64
		for _, d := range d2 {
			sum += d
		}
		var pick int
		if sum == 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * sum
			for i, d := range d2 {
				target -= d
				if target <= 0 {
					pick = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64{}, rows[pick]...))
	}
	return centroids, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"gea/internal/exec"
	"gea/internal/exec/shard"
)

// OPTICSConfig configures an OPTICS run (Ankerst, Breunig, Kriegel, Sander;
// the algorithm Ng, Sander and Sleumer applied to the SAGE data [NSS01]).
type OPTICSConfig struct {
	// Eps is the generating distance; math.Inf(1) considers all neighbours.
	Eps float64
	// MinPts is the core-point density threshold.
	MinPts int
	// Dist is the distance function; nil means CorrelationDistance, as in
	// the SAGE study.
	Dist DistanceFunc
}

// OPTICSPoint is one entry of the cluster-ordering output.
type OPTICSPoint struct {
	Index        int     // row index
	Reachability float64 // +Inf for the first point of each component
	CoreDistance float64 // +Inf if not a core point
}

// OPTICSWith computes the augmented cluster ordering of the rows. Valleys
// in the reachability plot are clusters; ExtractDBSCAN flattens the
// ordering at a fixed eps'.
//
// One work unit is one distance-matrix pair computed or one point added
// to the ordering; a budget stop returns the ordering produced so far,
// flagged partial.
func OPTICSWith(c *exec.Ctl, rows [][]float64, cfg OPTICSConfig) (_ []OPTICSPoint, partial bool, err error) {
	sp := c.StartSpan("cluster.OPTICS")
	sp.SetInput("%d rows, minPts=%d eps=%v", len(rows), cfg.MinPts, cfg.Eps)
	defer c.EndSpan(sp, &partial, &err)
	n := len(rows)
	if _, err := validateRows("OPTICS", rows); err != nil {
		return nil, false, err
	}
	if cfg.MinPts < 1 {
		return nil, false, &ParamError{Op: "OPTICS", Param: "MinPts", Msg: "must be at least 1"}
	}
	if cfg.Eps <= 0 || badNumber(cfg.Eps) {
		return nil, false, &ParamError{Op: "OPTICS", Param: "Eps",
			Msg: fmt.Sprintf("%v; must be a positive number", cfg.Eps)}
	}
	dist := cfg.Dist
	if dist == nil {
		dist = CorrelationDistance
	}

	// Precompute the distance matrix; the SAGE corpus is small.
	dm := make([][]float64, n)
	//lint:gea ctlcharge -- matrix allocation; every pair is charged in the computation loop below
	for i := range dm {
		dm[i] = make([]float64, n)
	}
	// The distance pairs are independent, so the matrix fills through
	// the shard substrate over a flattened pair index; each pair writes
	// only its own two mirrored cells. The distance function must be a
	// pure function of its two vectors.
	pi, pj := trianglePairs(n)
	_, dmPartial, err := shard.For(c, len(pi), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for p := lo; p < hi; p++ {
			if err := c.Point(1); err != nil {
				return p - lo, err
			}
			i, j := pi[p], pj[p]
			d := dist(rows[i], rows[j])
			dm[i][j] = d
			dm[j][i] = d
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	if dmPartial {
		// No ordering can be produced from a half-computed matrix.
		return nil, true, nil
	}

	coreDist := func(i int) float64 {
		// Distance to the MinPts-th neighbour within Eps (point itself
		// counts, as in the original paper's neighbourhood definition).
		ds := make([]float64, 0, n)
		ds = append(ds, 0) // self
		//lint:gea ctlcharge -- neighbourhood scan over the precomputed matrix; one unit is charged per point ordered
		for j := 0; j < n; j++ {
			if j != i && dm[i][j] <= cfg.Eps {
				ds = append(ds, dm[i][j])
			}
		}
		if len(ds) < cfg.MinPts {
			return math.Inf(1)
		}
		// k-th smallest.
		kth := quickSelect(ds, cfg.MinPts-1)
		return kth
	}

	processed := make([]bool, n)
	reach := make([]float64, n)
	//lint:gea ctlcharge -- reachability initialization; ordering work is metered below
	for i := range reach {
		reach[i] = math.Inf(1)
	}
	var order []OPTICSPoint

	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
		if err := c.Point(1); err != nil {
			if exec.IsBudget(err) {
				return order, true, nil
			}
			return nil, false, err
		}
		processed[start] = true
		cd := coreDist(start)
		order = append(order, OPTICSPoint{Index: start, Reachability: math.Inf(1), CoreDistance: cd})

		seeds := &reachHeap{}
		heap.Init(seeds)
		update := func(center int, centerCore float64) {
			if math.IsInf(centerCore, 1) {
				return
			}
			for j := 0; j < n; j++ {
				if processed[j] || dm[center][j] > cfg.Eps {
					continue
				}
				newReach := math.Max(centerCore, dm[center][j])
				if newReach < reach[j] {
					reach[j] = newReach
					heap.Push(seeds, reachItem{idx: j, reach: newReach})
				}
			}
		}
		update(start, cd)
		for seeds.Len() > 0 {
			item := heap.Pop(seeds).(reachItem)
			if processed[item.idx] || item.reach > reach[item.idx] {
				continue // stale heap entry
			}
			if err := c.Point(1); err != nil {
				if exec.IsBudget(err) {
					return order, true, nil
				}
				return nil, false, err
			}
			processed[item.idx] = true
			cd := coreDist(item.idx)
			order = append(order, OPTICSPoint{Index: item.idx, Reachability: reach[item.idx], CoreDistance: cd})
			update(item.idx, cd)
		}
	}
	return order, false, nil
}

// ExtractDBSCAN flattens an OPTICS ordering into DBSCAN-style clusters at
// eps'. It returns per-row labels; -1 is noise.
func ExtractDBSCAN(order []OPTICSPoint, eps float64) []int {
	maxIdx := -1
	for _, p := range order {
		if p.Index > maxIdx {
			maxIdx = p.Index
		}
	}
	labels := make([]int, maxIdx+1)
	for i := range labels {
		labels[i] = -1
	}
	cluster := -1
	for _, p := range order {
		if p.Reachability > eps {
			if p.CoreDistance <= eps {
				cluster++
				labels[p.Index] = cluster
			} // else noise
		} else {
			if cluster < 0 {
				cluster = 0
			}
			labels[p.Index] = cluster
		}
	}
	return labels
}

type reachItem struct {
	idx   int
	reach float64
}

type reachHeap []reachItem

func (h reachHeap) Len() int            { return len(h) }
func (h reachHeap) Less(i, j int) bool  { return h[i].reach < h[j].reach }
func (h reachHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *reachHeap) Push(x interface{}) { *h = append(*h, x.(reachItem)) }
func (h *reachHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// quickSelect returns the k-th smallest element (0-based) of xs, modifying
// xs. Neighbour lists here are at most the corpus size (~100), so a sort is
// simplest and plenty fast.
func quickSelect(xs []float64, k int) float64 {
	sort.Float64s(xs)
	return xs[k]
}

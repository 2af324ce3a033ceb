// Package cluster implements the one-step clustering baselines the thesis
// positions the GEA against (Sections 2.3.1-2.3.3): agglomerative
// hierarchical clustering with Pearson-correlation distance (Eisen et al.),
// k-means (Bradley/Fayyad/Reina), self-organizing maps (Golub et al., Tamayo
// et al.), and OPTICS (Ankerst et al.; applied to SAGE by Ng, Sander and
// Sleumer). These algorithms group libraries by expression similarity but —
// the thesis's point — do not by themselves surface candidate genes; the
// benchmark harness contrasts them with fascicle mining on that task.
package cluster

import (
	"fmt"
	"math"

	"gea/internal/exec"
	"gea/internal/exec/shard"
	"gea/internal/stats"
)

// DistanceFunc measures dissimilarity between two expression vectors.
type DistanceFunc func(a, b []float64) float64

// EuclideanDistance is the plain L2 metric.
func EuclideanDistance(a, b []float64) float64 {
	d, _ := stats.Euclidean(a, b)
	return d
}

// CorrelationDistance is 1 - Pearson correlation, the "standard correlation
// coefficient" distance of Eisen et al. and Ng et al.
func CorrelationDistance(a, b []float64) float64 {
	d, _ := stats.CorrelationDistance(a, b)
	return d
}

// Linkage selects how inter-cluster distance is computed during
// agglomeration.
type Linkage int

// Linkage methods.
const (
	AverageLinkage Linkage = iota // Eisen et al.'s pairwise average linkage
	SingleLinkage
	CompleteLinkage
)

// String names the linkage.
func (l Linkage) String() string {
	switch l {
	case AverageLinkage:
		return "average"
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Dendrogram is the result of hierarchical clustering: a binary merge tree.
type Dendrogram struct {
	// Merges lists the n-1 merges in order; cluster IDs 0..n-1 are leaves,
	// n+i is the cluster created by Merges[i].
	Merges []Merge
	// N is the number of leaves.
	N int
}

// Merge records one agglomeration step.
type Merge struct {
	A, B     int     // cluster IDs merged
	Distance float64 // linkage distance at which they merged
}

// HierarchicalWith clusters the given row vectors bottom-up. It is O(n^3)
// in the number of rows with O(n^2) memory — fine for the ~100 libraries
// of the SAGE corpus (the thesis clusters libraries, not the 60k tags).
//
// One work unit is one leaf-pair distance or one candidate cluster pair
// scanned; a budget stop returns the merges completed so far as a flagged
// partial dendrogram.
func HierarchicalWith(c *exec.Ctl, rows [][]float64, dist DistanceFunc, linkage Linkage) (_ *Dendrogram, partial bool, err error) {
	sp := c.StartSpan("cluster.Hierarchical")
	sp.SetInput("%d rows, linkage=%d", len(rows), int(linkage))
	defer c.EndSpan(sp, &partial, &err)
	n := len(rows)
	if _, err := validateRows("Hierarchical", rows); err != nil {
		return nil, false, err
	}
	if dist == nil {
		return nil, false, &ParamError{Op: "Hierarchical", Param: "dist", Msg: "distance function required"}
	}
	switch linkage {
	case AverageLinkage, SingleLinkage, CompleteLinkage:
	default:
		return nil, false, &ParamError{Op: "Hierarchical", Param: "linkage",
			Msg: fmt.Sprintf("unknown linkage %d", int(linkage))}
	}
	if n == 1 {
		return &Dendrogram{N: 1}, false, nil
	}

	// Active clusters: ID -> member leaf indices.
	members := map[int][]int{}
	//lint:gea ctlcharge -- singleton-cluster setup; leaf-pair distances are metered below
	for i := 0; i < n; i++ {
		members[i] = []int{i}
	}
	// Pairwise leaf distances, computed once.
	leafDist := make([][]float64, n)
	//lint:gea ctlcharge -- matrix allocation; every leaf pair is charged in the computation loop below
	for i := range leafDist {
		leafDist[i] = make([]float64, n)
	}
	// The leaf-pair distances are independent, so the triangular matrix
	// fills through the shard substrate over a flattened pair index;
	// each pair writes only its own two mirrored cells. The distance
	// function must be a pure function of its two vectors.
	pi, pj := trianglePairs(n)
	_, leafPartial, err := shard.For(c, len(pi), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
		for p := lo; p < hi; p++ {
			if err := c.Point(1); err != nil {
				return p - lo, err
			}
			i, j := pi[p], pj[p]
			d := dist(rows[i], rows[j])
			leafDist[i][j] = d
			leafDist[j][i] = d
		}
		return hi - lo, nil
	})
	if err != nil {
		return nil, false, err
	}
	if leafPartial {
		// A half-computed distance matrix supports no merges at all.
		return &Dendrogram{N: n}, true, nil
	}

	clusterDist := func(a, b []int) float64 {
		switch linkage {
		case SingleLinkage:
			best := math.Inf(1)
			//lint:gea ctlcharge -- lookups over the precomputed leaf-distance matrix; the enclosing scan charges one unit per candidate pair
			for _, x := range a {
				for _, y := range b {
					if leafDist[x][y] < best {
						best = leafDist[x][y]
					}
				}
			}
			return best
		case CompleteLinkage:
			worst := math.Inf(-1)
			//lint:gea ctlcharge -- lookups over the precomputed leaf-distance matrix; the enclosing scan charges one unit per candidate pair
			for _, x := range a {
				for _, y := range b {
					if leafDist[x][y] > worst {
						worst = leafDist[x][y]
					}
				}
			}
			return worst
		default: // AverageLinkage
			var sum float64
			//lint:gea ctlcharge -- lookups over the precomputed leaf-distance matrix; the enclosing scan charges one unit per candidate pair
			for _, x := range a {
				for _, y := range b {
					sum += leafDist[x][y]
				}
			}
			return sum / float64(len(a)*len(b))
		}
	}

	dg := &Dendrogram{N: n}
	nextID := n
	ids := make([]int, 0, n)
	//lint:gea ctlcharge -- id-list seed; cluster-pair scans are metered below
	for i := 0; i < n; i++ {
		ids = append(ids, i)
	}
	dall := make([]float64, n*(n-1)/2)
	for len(ids) > 1 {
		// Candidate-pair scan: linkage distances fill per-pair slots in
		// parallel, then a sequential strict-< argmin keeps the old
		// loop's first-minimum tie-breaking at any worker count.
		qi, qj := trianglePairs(len(ids))
		_, scanPartial, err := shard.For(c, len(qi), 0, func(c *exec.Ctl, _, lo, hi int) (int, error) {
			for p := lo; p < hi; p++ {
				if err := c.Point(1); err != nil {
					return p - lo, err
				}
				dall[p] = clusterDist(members[ids[qi[p]]], members[ids[qj[p]]])
			}
			return hi - lo, nil
		})
		if err != nil {
			return nil, false, err
		}
		if scanPartial {
			// The round's scan was cut short: the merges completed so
			// far are the flagged partial dendrogram.
			return dg, true, nil
		}
		bi, bj, best := 0, 1, math.Inf(1)
		for p := range qi {
			if dall[p] < best {
				best = dall[p]
				bi, bj = qi[p], qj[p]
			}
		}
		a, b := ids[bi], ids[bj]
		dg.Merges = append(dg.Merges, Merge{A: a, B: b, Distance: best})
		merged := append(append([]int{}, members[a]...), members[b]...)
		members[nextID] = merged
		delete(members, a)
		delete(members, b)
		// Remove bj first (bj > bi).
		ids = append(ids[:bj], ids[bj+1:]...)
		ids = append(ids[:bi], ids[bi+1:]...)
		ids = append(ids, nextID)
		nextID++
	}
	return dg, false, nil
}

// trianglePairs flattens the strict upper triangle of an m×m matrix
// into parallel (i, j) index slices, in the row-major order the old
// sequential double loops visited, so sharded scans keep their
// tie-breaking and budget-stop positions.
func trianglePairs(m int) ([]int, []int) {
	np := m * (m - 1) / 2
	pi := make([]int, 0, np)
	pj := make([]int, 0, np)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			pi = append(pi, i)
			pj = append(pj, j)
		}
	}
	return pi, pj
}

// Cut flattens the dendrogram into k clusters by undoing the last k-1
// merges. It returns, for each leaf, its cluster label in 0..k-1.
func (d *Dendrogram) Cut(k int) ([]int, error) {
	if k < 1 || k > d.N {
		return nil, fmt.Errorf("cluster: cannot cut %d leaves into %d clusters", d.N, k)
	}
	// Apply the first n-k merges.
	parent := map[int]int{}
	find := func(x int) int {
		for {
			p, ok := parent[x]
			if !ok {
				return x
			}
			x = p
		}
	}
	apply := d.N - k
	for i := 0; i < apply; i++ {
		m := d.Merges[i]
		root := d.N + i
		parent[find(m.A)] = root
		parent[find(m.B)] = root
	}
	labels := make([]int, d.N)
	rootLabel := map[int]int{}
	next := 0
	for i := 0; i < d.N; i++ {
		r := find(i)
		l, ok := rootLabel[r]
		if !ok {
			l = next
			next++
			rootLabel[r] = l
		}
		labels[i] = l
	}
	return labels, nil
}

// Heights returns the merge distances in order, useful for picking a cut.
func (d *Dendrogram) Heights() []float64 {
	h := make([]float64, len(d.Merges))
	for i, m := range d.Merges {
		h[i] = m.Distance
	}
	return h
}

// Leaves returns the leaf order produced by a depth-first walk of the final
// tree — the display order of an Eisen-style heat map.
func (d *Dendrogram) Leaves() []int {
	if d.N == 1 {
		return []int{0}
	}
	children := map[int][2]int{}
	for i, m := range d.Merges {
		children[d.N+i] = [2]int{m.A, m.B}
	}
	root := d.N + len(d.Merges) - 1
	var out []int
	var walk func(int)
	walk = func(id int) {
		if id < d.N {
			out = append(out, id)
			return
		}
		c := children[id]
		walk(c[0])
		walk(c[1])
	}
	walk(root)
	return out
}

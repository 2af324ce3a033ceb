package cluster

import (
	"math"
	"math/rand"
	"testing"

	"gea/internal/exec"
)

// twoBlobs returns two well-separated groups of points: rows 0..4 near the
// origin and rows 5..9 near (100, 100, ...).
func twoBlobs(rng *rand.Rand, dim int) [][]float64 {
	rows := make([][]float64, 10)
	for i := range rows {
		base := 0.0
		if i >= 5 {
			base = 100
		}
		r := make([]float64, dim)
		for j := range r {
			r[j] = base + rng.NormFloat64()
		}
		rows[i] = r
	}
	return rows
}

func sameGroupLabels(labels []int) (bool, bool) {
	firstOK := true
	for i := 1; i < 5; i++ {
		if labels[i] != labels[0] {
			firstOK = false
		}
	}
	secondOK := true
	for i := 6; i < 10; i++ {
		if labels[i] != labels[5] {
			secondOK = false
		}
	}
	return firstOK && secondOK, labels[0] != labels[5]
}

func TestHierarchicalSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := twoBlobs(rng, 6)
	for _, linkage := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		dg, _, err := HierarchicalWith(exec.Background(), rows, EuclideanDistance, linkage)
		if err != nil {
			t.Fatal(err)
		}
		if len(dg.Merges) != 9 {
			t.Fatalf("%v: %d merges, want 9", linkage, len(dg.Merges))
		}
		labels, err := dg.Cut(2)
		if err != nil {
			t.Fatal(err)
		}
		together, apart := sameGroupLabels(labels)
		if !together || !apart {
			t.Errorf("%v linkage: labels %v do not separate the blobs", linkage, labels)
		}
	}
}

func TestHierarchicalHeightsMonotoneForSingleLinkage(t *testing.T) {
	// Single-linkage merge heights are provably non-decreasing.
	rng := rand.New(rand.NewSource(2))
	rows := make([][]float64, 15)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	dg, _, err := HierarchicalWith(exec.Background(), rows, EuclideanDistance, SingleLinkage)
	if err != nil {
		t.Fatal(err)
	}
	h := dg.Heights()
	for i := 1; i < len(h); i++ {
		if h[i] < h[i-1]-1e-12 {
			t.Fatalf("single-linkage heights not monotone: %v", h)
		}
	}
}

func TestHierarchicalEdgeCases(t *testing.T) {
	if _, _, err := HierarchicalWith(exec.Background(), nil, EuclideanDistance, AverageLinkage); err == nil {
		t.Error("empty rows: expected error")
	}
	dg, _, err := HierarchicalWith(exec.Background(), [][]float64{{1, 2}}, EuclideanDistance, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if dg.N != 1 || len(dg.Merges) != 0 {
		t.Errorf("single row dendrogram = %+v", dg)
	}
	if got := dg.Leaves(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Leaves(single) = %v", got)
	}
}

func TestCut(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := twoBlobs(rng, 3)
	dg, _, err := HierarchicalWith(exec.Background(), rows, EuclideanDistance, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	// k = n gives all-singleton labels.
	labels, err := dg.Cut(10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Fatalf("Cut(n) labels not unique: %v", labels)
		}
		seen[l] = true
	}
	// k = 1 gives one cluster.
	labels, err = dg.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatalf("Cut(1) labels = %v", labels)
		}
	}
	if _, err := dg.Cut(0); err == nil {
		t.Error("Cut(0): expected error")
	}
	if _, err := dg.Cut(11); err == nil {
		t.Error("Cut(n+1): expected error")
	}
}

func TestLeavesIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := twoBlobs(rng, 4)
	dg, _, err := HierarchicalWith(exec.Background(), rows, CorrelationDistance, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	leaves := dg.Leaves()
	if len(leaves) != 10 {
		t.Fatalf("Leaves = %v", leaves)
	}
	seen := map[int]bool{}
	for _, l := range leaves {
		if l < 0 || l >= 10 || seen[l] {
			t.Fatalf("Leaves not a permutation: %v", leaves)
		}
		seen[l] = true
	}
}

func TestLinkageString(t *testing.T) {
	if AverageLinkage.String() != "average" || Linkage(9).String() != "Linkage(9)" {
		t.Error("Linkage strings wrong")
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := twoBlobs(rng, 5)
	res, _, err := KMeansWith(exec.Background(), rows, 2, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	together, apart := sameGroupLabels(res.Labels)
	if !together || !apart {
		t.Errorf("k-means labels %v do not separate the blobs", res.Labels)
	}
	if res.Inertia <= 0 {
		t.Errorf("inertia = %v", res.Inertia)
	}
	if res.Iters < 1 {
		t.Errorf("iters = %d", res.Iters)
	}
	// Centroids near 0 and 100.
	c0 := res.Centroids[res.Labels[0]][0]
	c1 := res.Centroids[res.Labels[5]][0]
	if math.Abs(c0) > 5 || math.Abs(c1-100) > 5 {
		t.Errorf("centroids = %v, %v", c0, c1)
	}
}

func TestKMeansErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, _, err := KMeansWith(exec.Background(), nil, 2, rng, 0); err == nil {
		t.Error("empty rows: expected error")
	}
	rows := [][]float64{{1}, {2}}
	if _, _, err := KMeansWith(exec.Background(), rows, 0, rng, 0); err == nil {
		t.Error("k=0: expected error")
	}
	if _, _, err := KMeansWith(exec.Background(), rows, 3, rng, 0); err == nil {
		t.Error("k>n: expected error")
	}
	if _, _, err := KMeansWith(exec.Background(), [][]float64{{1}, {2, 3}}, 1, rng, 0); err == nil {
		t.Error("ragged rows: expected error")
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := [][]float64{{0}, {10}, {20}}
	res, _, err := KMeansWith(exec.Background(), rows, 3, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Errorf("k=n inertia = %v, want 0", res.Inertia)
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, _, err := KMeansWith(exec.Background(), rows, 2, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Errorf("duplicate-point inertia = %v", res.Inertia)
	}
}

func TestSOMSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := twoBlobs(rng, 4)
	res, _, err := SOMWith(exec.Background(), rows, SOMConfig{GridW: 2, GridH: 1, Epochs: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	together, apart := sameGroupLabels(res.Labels)
	if !together || !apart {
		t.Errorf("SOM labels %v do not separate the blobs (the Golub ALL/AML setup)", res.Labels)
	}
	if len(res.Weights) != 2 {
		t.Errorf("weights = %d units", len(res.Weights))
	}
}

func TestSOMErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	if _, _, err := SOMWith(exec.Background(), nil, SOMConfig{GridW: 1, GridH: 1}, rng); err == nil {
		t.Error("empty rows: expected error")
	}
	rows := [][]float64{{1}, {2}}
	if _, _, err := SOMWith(exec.Background(), rows, SOMConfig{GridW: 0, GridH: 1}, rng); err == nil {
		t.Error("bad grid: expected error")
	}
	if _, _, err := SOMWith(exec.Background(), [][]float64{{1}, {2, 3}}, SOMConfig{GridW: 1, GridH: 1}, rng); err == nil {
		t.Error("ragged rows: expected error")
	}
}

func TestOPTICSOrderingCoversAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := twoBlobs(rng, 4)
	order, _, err := OPTICSWith(exec.Background(), rows, OPTICSConfig{Eps: math.Inf(1), MinPts: 3, Dist: EuclideanDistance})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(rows) {
		t.Fatalf("ordering has %d points, want %d", len(order), len(rows))
	}
	seen := map[int]bool{}
	for _, p := range order {
		if seen[p.Index] {
			t.Fatalf("point %d appears twice", p.Index)
		}
		seen[p.Index] = true
	}
	if !math.IsInf(order[0].Reachability, 1) {
		t.Error("first point must have infinite reachability")
	}
}

func TestOPTICSSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows := twoBlobs(rng, 4)
	order, _, err := OPTICSWith(exec.Background(), rows, OPTICSConfig{Eps: math.Inf(1), MinPts: 3, Dist: EuclideanDistance})
	if err != nil {
		t.Fatal(err)
	}
	labels := ExtractDBSCAN(order, 10)
	together, apart := sameGroupLabels(labels)
	if !together || !apart {
		t.Errorf("OPTICS labels %v do not separate the blobs", labels)
	}
	// There should be exactly one big reachability jump (between the blobs).
	jumps := 0
	for _, p := range order[1:] {
		if p.Reachability > 10 {
			jumps++
		}
	}
	if jumps != 1 {
		t.Errorf("reachability plot has %d jumps > 10, want 1", jumps)
	}
}

func TestOPTICSDefaultDistanceIsCorrelation(t *testing.T) {
	// Two rows with identical shape but different scale have correlation
	// distance 0, so with the default distance they are one dense cluster.
	rows := [][]float64{
		{1, 2, 3, 4},
		{10, 20, 30, 40},
		{2, 4, 6, 8},
	}
	order, _, err := OPTICSWith(exec.Background(), rows, OPTICSConfig{Eps: math.Inf(1), MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	labels := ExtractDBSCAN(order, 0.1)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("correlated rows not clustered together: %v", labels)
	}
}

func TestOPTICSErrors(t *testing.T) {
	rows := [][]float64{{1}, {2}}
	if _, _, err := OPTICSWith(exec.Background(), nil, OPTICSConfig{Eps: 1, MinPts: 1}); err == nil {
		t.Error("empty rows: expected error")
	}
	if _, _, err := OPTICSWith(exec.Background(), rows, OPTICSConfig{Eps: 1, MinPts: 0}); err == nil {
		t.Error("MinPts=0: expected error")
	}
	if _, _, err := OPTICSWith(exec.Background(), rows, OPTICSConfig{Eps: 0, MinPts: 1}); err == nil {
		t.Error("Eps=0: expected error")
	}
}

func TestOPTICSNoisePoint(t *testing.T) {
	// One far-away point with restrictive eps becomes noise.
	rows := [][]float64{{0}, {1}, {2}, {1000}}
	order, _, err := OPTICSWith(exec.Background(), rows, OPTICSConfig{Eps: 5, MinPts: 2, Dist: EuclideanDistance})
	if err != nil {
		t.Fatal(err)
	}
	labels := ExtractDBSCAN(order, 5)
	if labels[3] != -1 {
		t.Errorf("outlier label = %d, want -1 (noise)", labels[3])
	}
	if labels[0] == -1 || labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("dense cluster labels = %v", labels)
	}
}

func TestDistanceFuncs(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if d := EuclideanDistance(a, b); d != 5 {
		t.Errorf("Euclidean = %v", d)
	}
	x := []float64{1, 2, 3}
	y := []float64{2, 4, 6}
	if d := CorrelationDistance(x, y); math.Abs(d) > 1e-12 {
		t.Errorf("CorrelationDistance(parallel) = %v", d)
	}
}

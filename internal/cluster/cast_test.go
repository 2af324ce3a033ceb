package cluster

import (
	"math/rand"
	"testing"

	"gea/internal/exec"
)

func TestCASTSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Correlated shapes: group 1 rising, group 2 falling.
	rows := make([][]float64, 10)
	for i := range rows {
		r := make([]float64, 8)
		for j := range r {
			base := float64(j)
			if i >= 5 {
				base = float64(len(r) - j)
			}
			r[j] = base + 0.05*rng.NormFloat64()
		}
		rows[i] = r
	}
	labels, _, err := CASTWith(exec.Background(), rows, CASTConfig{T: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if NumClusters(labels) != 2 {
		t.Fatalf("CAST found %d clusters, want 2: %v", NumClusters(labels), labels)
	}
	together, apart := sameGroupLabels(labels)
	if !together || !apart {
		t.Errorf("CAST labels %v do not separate the shape groups", labels)
	}
}

func TestCASTDeterminesClusterCount(t *testing.T) {
	// Three distinct shapes; CAST must discover k=3 without being told.
	rng := rand.New(rand.NewSource(22))
	shapes := [][]float64{
		{1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1},
		{1, 6, 1, 6, 1, 6},
	}
	var rows [][]float64
	for s := range shapes {
		for k := 0; k < 4; k++ {
			r := make([]float64, len(shapes[s]))
			for j := range r {
				r[j] = shapes[s][j] + 0.05*rng.NormFloat64()
			}
			rows = append(rows, r)
		}
	}
	labels, _, err := CASTWith(exec.Background(), rows, CASTConfig{T: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if NumClusters(labels) != 3 {
		t.Errorf("CAST found %d clusters, want 3: %v", NumClusters(labels), labels)
	}
	// Members of each shape share a label.
	for s := 0; s < 3; s++ {
		for k := 1; k < 4; k++ {
			if labels[4*s+k] != labels[4*s] {
				t.Errorf("shape %d split: %v", s, labels)
			}
		}
	}
}

func TestCASTThresholdExtremes(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {2, 4, 6}, {3, 2, 1}}
	// T=0: everything joins one cluster.
	labels, _, err := CASTWith(exec.Background(), rows, CASTConfig{T: 0})
	if err != nil {
		t.Fatal(err)
	}
	if NumClusters(labels) != 1 {
		t.Errorf("T=0 clusters = %d, want 1", NumClusters(labels))
	}
	// T=1: only perfectly-affine points merge; anticorrelated point splits.
	labels, _, err = CASTWith(exec.Background(), rows, CASTConfig{T: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != labels[1] {
		t.Errorf("parallel rows split at high T: %v", labels)
	}
	if labels[2] == labels[0] {
		t.Errorf("anticorrelated row merged at high T: %v", labels)
	}
}

func TestCASTErrors(t *testing.T) {
	if _, _, err := CASTWith(exec.Background(), nil, CASTConfig{T: 0.5}); err == nil {
		t.Error("empty rows: expected error")
	}
	if _, _, err := CASTWith(exec.Background(), [][]float64{{1}}, CASTConfig{T: -0.1}); err == nil {
		t.Error("negative T: expected error")
	}
	if _, _, err := CASTWith(exec.Background(), [][]float64{{1}}, CASTConfig{T: 1.1}); err == nil {
		t.Error("T > 1: expected error")
	}
}

func TestCASTAllAssigned(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := make([][]float64, 17)
	for i := range rows {
		r := make([]float64, 5)
		for j := range r {
			r[j] = rng.Float64() * 10
		}
		rows[i] = r
	}
	labels, _, err := CASTWith(exec.Background(), rows, CASTConfig{T: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l < 0 {
			t.Errorf("row %d unassigned", i)
		}
	}
}

func TestCorrelationAffinityRange(t *testing.T) {
	a := []float64{1, 2, 3}
	if got := CorrelationAffinity(a, a); got != 1 {
		t.Errorf("self affinity = %v, want 1", got)
	}
	b := []float64{3, 2, 1}
	if got := CorrelationAffinity(a, b); got > 1e-9 {
		t.Errorf("anticorrelated affinity = %v, want 0", got)
	}
}

func TestNumClusters(t *testing.T) {
	if NumClusters([]int{0, 1, 1, 2, -1}) != 3 {
		t.Error("NumClusters wrong")
	}
	if NumClusters(nil) != 0 {
		t.Error("NumClusters(nil) wrong")
	}
}

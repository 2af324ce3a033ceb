package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gea/internal/exec"
)

func TestRenderDendrogram(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := twoBlobs(rng, 3)
	dg, _, err := HierarchicalWith(exec.Background(), rows, EuclideanDistance, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, 10)
	for i := range labels {
		labels[i] = string(rune('A' + i))
	}
	out, err := RenderDendrogram(dg, labels)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if !strings.Contains(out, l) {
			t.Errorf("rendering misses leaf %s:\n%s", l, out)
		}
	}
	if strings.Count(out, "(d=") != len(dg.Merges) {
		t.Errorf("rendering shows %d merges, want %d:\n%s",
			strings.Count(out, "(d="), len(dg.Merges), out)
	}
	if _, err := RenderDendrogram(dg, labels[:3]); err == nil {
		t.Error("label mismatch: expected error")
	}
	single, _, err := HierarchicalWith(exec.Background(), rows[:1], EuclideanDistance, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := RenderDendrogram(single, []string{"only"}); err != nil || out != "only\n" {
		t.Errorf("single-leaf render = %q, %v", out, err)
	}
}

func TestTextHeatmap(t *testing.T) {
	rows := [][]float64{
		{0, 5, 10},
		{7, 7, 7},
	}
	out, err := TextHeatmap(rows, []string{"up", "flat"})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("heatmap lines = %d", len(lines))
	}
	// Row 1 ends at the hottest shade; row 2 (constant) is all-cold.
	if !strings.HasSuffix(lines[0], "@") {
		t.Errorf("row 0 should end hot: %q", lines[0])
	}
	if strings.ContainsAny(strings.TrimPrefix(lines[1], "flat"), "@#%") {
		t.Errorf("constant row should stay cold: %q", lines[1])
	}
	if _, err := TextHeatmap(rows, []string{"one"}); err == nil {
		t.Error("label mismatch: expected error")
	}
}

func TestReorder(t *testing.T) {
	rows := [][]float64{{1}, {2}, {3}}
	labels := []string{"a", "b", "c"}
	outR, outL, err := Reorder(rows, labels, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if outL[0] != "c" || outR[0][0] != 3 || outL[2] != "b" {
		t.Errorf("reorder = %v / %v", outR, outL)
	}
	if _, _, err := Reorder(rows, labels, []int{0, 0, 1}); err == nil {
		t.Error("non-permutation: expected error")
	}
	if _, _, err := Reorder(rows, labels, []int{0}); err == nil {
		t.Error("short order: expected error")
	}
	if _, _, err := Reorder(rows, labels, []int{0, 1, 9}); err == nil {
		t.Error("out-of-range order: expected error")
	}
}

func TestReachabilityPlot(t *testing.T) {
	order := []OPTICSPoint{
		{Index: 0, Reachability: math.Inf(1)},
		{Index: 1, Reachability: 0.1},
		{Index: 2, Reachability: 0.9},
	}
	out, err := ReachabilityPlot(order, []string{"x", "y", "z"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("plot lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "∞") {
		t.Errorf("first point should be infinite: %q", lines[0])
	}
	if strings.Count(lines[2], "█") <= strings.Count(lines[1], "█") {
		t.Error("larger reachability should draw a longer bar")
	}
	// Missing labels fall back to indexes; zero width defaults.
	out2, err := ReachabilityPlot(order, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "#2") {
		t.Errorf("fallback labels missing: %q", out2)
	}
}

// TestEisenWorkflow: cluster genes (tags) by their cross-library profiles
// and render the clustered heat map in leaf order — the Eisen et al.
// analysis of Section 2.3.2 built from the toolkit's parts. Up- and
// down-regulated shapes must separate.
func TestEisenWorkflow(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	// 6 genes over 8 libraries: 3 rising, 3 falling.
	genes := make([][]float64, 6)
	labels := make([]string, 6)
	for g := range genes {
		row := make([]float64, 8)
		for j := range row {
			base := float64(j)
			if g >= 3 {
				base = float64(len(row) - j)
			}
			row[j] = base*10 + rng.NormFloat64()
		}
		genes[g] = row
		labels[g] = string(rune('U'+0)) + string(rune('0'+g))
		if g >= 3 {
			labels[g] = "D" + string(rune('0'+g))
		}
	}
	dg, _, err := HierarchicalWith(exec.Background(), genes, CorrelationDistance, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	leaves := dg.Leaves()
	ordRows, ordLabels, err := Reorder(genes, labels, leaves)
	if err != nil {
		t.Fatal(err)
	}
	// All U genes contiguous, all D genes contiguous in leaf order.
	var kinds []byte
	for _, l := range ordLabels {
		kinds = append(kinds, l[0])
	}
	switches := 0
	for i := 1; i < len(kinds); i++ {
		if kinds[i] != kinds[i-1] {
			switches++
		}
	}
	if switches != 1 {
		t.Errorf("leaf order mixes gene groups: %s", string(kinds))
	}
	if _, err := TextHeatmap(ordRows, ordLabels); err != nil {
		t.Fatal(err)
	}
}

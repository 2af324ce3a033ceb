package gea

import (
	"testing"
)

// TestPublicAPIEndToEnd drives the full case-study-1 workflow through the
// facade only, proving the public API is self-sufficient.
func TestPublicAPIEndToEnd(t *testing.T) {
	res, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(res.Corpus, SystemOptions{
		User: "quickstart", Catalog: res.Catalog, GeneDBSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	brain, err := sys.CreateTissueDataset("brain")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.GenerateMetadata("brain", 10); err != nil {
		t.Fatal(err)
	}
	_ = brain
	pure, err := sys.FindPureFascicle("brain", PropCancer, 3)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := sys.FormSUM(pure, "brain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateGap("canvsnor", groups.InFascicle, groups.Opposite); err != nil {
		t.Fatal(err)
	}
	top, err := sys.CalculateTopGap("canvsnor", 5)
	if err != nil {
		t.Fatal(err)
	}
	if top.Len() != 5 {
		t.Fatalf("top gaps = %d", top.Len())
	}
	// Candidate genes resolve through the auxiliary databases.
	var tags []TagID
	for _, r := range top.Rows {
		tags = append(tags, r.Tag)
	}
	anns, err := sys.GeneDB.AnnotateTags(tags)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) == 0 {
		t.Fatal("no candidate gene annotations")
	}
	for _, a := range anns {
		if a.Gene == "" || a.Protein == "" {
			t.Errorf("incomplete annotation %+v", a)
		}
	}
}

// TestPublicAlgebraPieces exercises the re-exported operators directly.
func TestPublicAlgebraPieces(t *testing.T) {
	res, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleaned, rep, err := Clean(res.Corpus, DefaultCleanOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedTagFraction() <= 0 {
		t.Error("cleaning removed nothing")
	}
	d := BuildDataset(cleaned)
	// Slice to one tissue first — pooling all tissues makes every per-group
	// deviation so wide that diff() reports NULL everywhere, which is
	// exactly why the case studies start from E_brain.
	brain, err := d.SubsetByTissue("brain")
	if err != nil {
		t.Fatal(err)
	}
	full := FullEnum("Ebrain", brain)
	cancer := full.SelectRows("cancer", func(m LibraryMeta) bool { return m.State == Cancer })
	normal := full.SelectRows("normal", func(m LibraryMeta) bool { return m.State == Normal })
	sc, _, err := Aggregate(Background(), "sc", cancer, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sn, _, err := Aggregate(Background(), "sn", normal, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := Diff(Background(), "g", sc, sn)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := SelectGap("neg", g, GapNegative(0))
	if err != nil {
		t.Fatal(err)
	}
	pos, err := SelectGap("pos", g, GapPositive(0))
	if err != nil {
		t.Fatal(err)
	}
	if neg.Len()+pos.Len() == 0 {
		t.Error("no non-null gaps between cancer and normal")
	}
	// Index-selection math (Table 3.1 flagship row).
	m, err := IndicesRequired(60000, 25000, 1, DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	if m != 17 {
		t.Errorf("IndicesRequired = %d, want 17", m)
	}
	// Allen algebra.
	if ClassifyIntervals(NewInterval(0, 1), NewInterval(2, 3)) != Before {
		t.Error("interval algebra broken")
	}
	// Baselines are callable.
	rows := [][]float64{{1, 2}, {1.1, 2.1}, {9, 9}, {9.2, 9.1}}
	dg, _, err := Hierarchical(Background(), rows, EuclideanDistance, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := dg.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != labels[1] || labels[0] == labels[2] {
		t.Errorf("hierarchical labels = %v", labels)
	}
}

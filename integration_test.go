package gea

import (
	"path/filepath"
	"testing"
)

// runPipeline executes the case-study-1 pipeline through the public API and
// returns the session plus the top-10 candidate tags.
func runPipeline(t *testing.T, user string) (*System, *GenResult, []TagID) {
	t.Helper()
	res, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(res.Corpus, SystemOptions{User: user, Catalog: res.Catalog, GeneDBSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateTissueDataset("brain"); err != nil {
		t.Fatal(err)
	}
	if err := sys.GenerateMetadata("brain", 10); err != nil {
		t.Fatal(err)
	}
	pure, err := sys.FindPureFascicle("brain", PropCancer, 3)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := sys.FormSUM(pure, "brain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateGap("itGap", groups.InFascicle, groups.Opposite); err != nil {
		t.Fatal(err)
	}
	top, err := sys.CalculateTopGap("itGap", 10)
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]TagID, 0, top.Len())
	for _, r := range top.Rows {
		tags = append(tags, r.Tag)
	}
	return sys, res, tags
}

// TestIntegrationDeterminism: the whole pipeline is reproducible for a fixed
// seed — identical candidate lists across independent runs.
func TestIntegrationDeterminism(t *testing.T) {
	_, _, tags1 := runPipeline(t, "run1")
	_, _, tags2 := runPipeline(t, "run2")
	if len(tags1) != len(tags2) {
		t.Fatalf("candidate counts differ: %d vs %d", len(tags1), len(tags2))
	}
	for i := range tags1 {
		if tags1[i] != tags2[i] {
			t.Fatalf("candidate %d differs: %v vs %v", i, tags1[i], tags2[i])
		}
	}
}

// TestIntegrationSessionRoundTrip: save the session, reload it through the
// facade, and confirm the analysis state and results are intact.
func TestIntegrationSessionRoundTrip(t *testing.T) {
	sys, res, tags := runPipeline(t, "persist")
	dir := filepath.Join(t.TempDir(), "session")
	if err := sys.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSession(dir, res.Catalog, 1)
	if err != nil {
		t.Fatal(err)
	}
	top, err := got.Gap("itGap_10")
	if err != nil {
		t.Fatal(err)
	}
	if top.Len() != len(tags) {
		t.Fatalf("restored top gap has %d rows, want %d", top.Len(), len(tags))
	}
	for i, r := range top.Rows {
		if r.Tag != tags[i] {
			t.Fatalf("restored candidate %d = %v, want %v", i, r.Tag, tags[i])
		}
	}
}

// TestIntegrationCandidatesArePlanted: the pipeline's top candidates must be
// planted signature genes, and the gene databases must resolve them.
func TestIntegrationCandidatesArePlanted(t *testing.T) {
	sys, res, tags := runPipeline(t, "truth")
	planted := 0
	for _, tg := range tags {
		if g, ok := res.Catalog.ByTag(tg); ok {
			switch g.Role.String() {
			case "cancer-up", "cancer-down":
				planted++
			}
		}
	}
	if planted < len(tags)*2/3 {
		t.Errorf("only %d of %d top candidates are planted signature genes", planted, len(tags))
	}
	anns, err := sys.GeneDB.AnnotateTags(tags)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) < planted {
		t.Errorf("annotated %d candidates, expected at least %d", len(anns), planted)
	}
}

// TestIntegrationXProfilerComparison: the GEA's gap-based candidates beat
// the pooled xProfiler on precision against the planted ground truth (the
// thesis's qualitative claim, asserted quantitatively).
func TestIntegrationXProfilerComparison(t *testing.T) {
	sys, res, _ := runPipeline(t, "xp")
	truth := map[TagID]bool{}
	for _, g := range res.Catalog.Genes {
		if (g.Tissue == "brain" || g.Tissue == "") &&
			(g.Role.String() == "cancer-up" || g.Role.String() == "cancer-down") {
			truth[g.Tag] = true
		}
	}
	precision := func(tags []TagID) float64 {
		if len(tags) == 0 {
			return 0
		}
		tp := 0
		for _, tg := range tags {
			if truth[tg] {
				tp++
			}
		}
		return float64(tp) / float64(len(tags))
	}

	cancer, err := XPoolByState(res.Corpus, "brain", Cancer)
	if err != nil {
		t.Fatal(err)
	}
	normal, err := XPoolByState(res.Corpus, "brain", Normal)
	if err != nil {
		t.Fatal(err)
	}
	xres, _, err := XCompare(Background(), cancer, normal, XOptions{Alpha: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	var xtags []TagID
	for _, r := range xres {
		xtags = append(xtags, r.Tag)
	}

	gap, err := sys.Gap("itGap")
	if err != nil {
		t.Fatal(err)
	}
	nn, err := SelectGap("nn", gap, GapNonNull(0))
	if err != nil {
		t.Fatal(err)
	}
	var gtags []TagID
	for _, r := range nn.Rows {
		gtags = append(gtags, r.Tag)
	}

	xp, gp := precision(xtags), precision(gtags)
	if gp <= xp {
		t.Errorf("GEA precision %.2f not better than xProfiler %.2f", gp, xp)
	}
}

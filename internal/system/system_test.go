package system

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"gea/internal/core"
	"gea/internal/exec"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

// newSystem builds a session over the small synthetic corpus with genedb.
func newSystem(t *testing.T) (*System, *sagegen.Result) {
	t.Helper()
	res, err := sagegen.Generate(sagegen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(res.Corpus, Options{User: "jessica", Catalog: res.Catalog, GeneDBSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// runBrainPipeline executes steps 1-6 of case study 1 and returns the case
// groups plus the first pure-cancer fascicle name.
func runBrainPipeline(t *testing.T, sys *System) (CaseGroups, string) {
	t.Helper()
	brain, err := sys.CreateTissueDataset("brain")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.GenerateMetadata("brain", 10); err != nil {
		t.Fatal(err)
	}
	_ = brain
	pure, err := sys.FindPureFascicle("brain", sage.PropCancer, 3)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := sys.FormSUM(pure, "brain")
	if err != nil {
		t.Fatal(err)
	}
	return groups, pure
}

func TestNewInitializesCatalog(t *testing.T) {
	sys, _ := newSystem(t)
	libs, err := sys.Store.Get(TblLibraries)
	if err != nil {
		t.Fatal(err)
	}
	if libs.Len() != sys.Data.NumLibraries() {
		t.Errorf("Libraries has %d rows, want %d", libs.Len(), sys.Data.NumLibraries())
	}
	sageInfo, err := sys.Store.Get(TblSageInfo)
	if err != nil {
		t.Fatal(err)
	}
	if sageInfo.Len() != 1 || sageInfo.Rows[0][0].Int() != int64(sys.Data.NumTags()) {
		t.Errorf("SageInfo = %v", sageInfo.Rows)
	}
	if sys.CleanReport == nil || sys.CleanReport.UniqueTagsAfter >= sys.CleanReport.UniqueTagsBefore {
		t.Error("cleaning report missing or implausible")
	}
	if sys.GeneDB == nil {
		t.Error("genedb not built despite catalog")
	}
	if !sys.Lineage.Has(RootDataset) {
		t.Error("root dataset not in lineage")
	}
}

func TestCaseStudy1Pipeline(t *testing.T) {
	sys, res := newSystem(t)
	groups, pure := runBrainPipeline(t, sys)

	// The in-fascicle group should consist of planted core libraries.
	fas, err := sys.Fascicle(pure)
	if err != nil {
		t.Fatal(err)
	}
	core := map[string]bool{}
	for _, n := range res.FascicleCore["brain"] {
		core[n] = true
	}
	brain, _ := sys.Dataset("brain")
	coreHits := 0
	for _, n := range fas.Fascicle.LibraryNames(brain) {
		if core[n] {
			coreHits++
		}
	}
	if coreHits < 3 {
		t.Errorf("pure fascicle has only %d core members", coreHits)
	}

	// Step 6: GAP between cancer-in-fascicle and normal.
	gap, err := sys.CreateGap(pure+"canvsnor_gap", groups.InFascicle, groups.Opposite)
	if err != nil {
		t.Fatal(err)
	}
	if gap.Len() == 0 {
		t.Fatal("empty GAP")
	}
	top, err := sys.CalculateTopGap(pure+"canvsnor_gap", 10)
	if err != nil {
		t.Fatal(err)
	}
	if top.Len() != 10 {
		t.Errorf("top gap = %d rows", top.Len())
	}
	// The planted signature means strong gaps must exist.
	if v := top.Rows[0].Values[0]; v.Null || v.V == 0 {
		t.Errorf("top gap value = %v", v)
	}

	// Lineage knows the whole chain.
	plan := sys.Lineage.Tree()
	if plan == "" {
		t.Error("empty lineage tree")
	}
	desc, err := sys.Lineage.Descendants("brain")
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) < 5 {
		t.Errorf("brain descendants = %v", desc)
	}
}

func TestRedundancyChecks(t *testing.T) {
	sys, _ := newSystem(t)
	if _, err := sys.CreateTissueDataset("brain"); err != nil {
		t.Fatal(err)
	}
	_, err := sys.CreateTissueDataset("brain")
	var exists ErrExists
	if !errors.As(err, &exists) || exists.Name != "brain" {
		t.Errorf("duplicate dataset err = %v", err)
	}
	// After a cascade delete the name is free again.
	if _, err := sys.DeleteCascade("brain"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateTissueDataset("brain"); err != nil {
		t.Errorf("recreate after delete: %v", err)
	}
}

func TestDeleteCascadeRemovesDerived(t *testing.T) {
	sys, _ := newSystem(t)
	groups, pure := runBrainPipeline(t, sys)
	if _, err := sys.CreateGap("g1", groups.InFascicle, groups.Opposite); err != nil {
		t.Fatal(err)
	}
	deleted, err := sys.DeleteCascade(pure)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) < 4 { // fascicle + 3 SUMYs + gap
		t.Errorf("deleted = %v", deleted)
	}
	if _, err := sys.Gap("g1"); err == nil {
		t.Error("gap survived cascade")
	}
	if _, err := sys.Sumy(groups.InFascicle); err == nil {
		t.Error("sumy survived cascade")
	}
}

func TestFormSUMRejectsNonPureAndWrongDataset(t *testing.T) {
	sys, _ := newSystem(t)
	_, pure := runBrainPipeline(t, sys)
	// Wrong dataset.
	if _, err := sys.CreateTissueDataset("breast"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FormSUM(pure, "breast"); err == nil {
		t.Error("FormSUM with mismatched dataset: expected error")
	}
	if _, err := sys.FormSUM("nope", "brain"); err == nil {
		t.Error("FormSUM with unknown fascicle: expected error")
	}
}

func TestCompareGapsAndQueries(t *testing.T) {
	sys, _ := newSystem(t)
	groups, pure := runBrainPipeline(t, sys)
	if _, err := sys.CreateGap("canvsnor", groups.InFascicle, groups.Opposite); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateGap("canvscnif", groups.InFascicle, groups.SameNotInFascicle); err != nil {
		t.Fatal(err)
	}
	cmp, err := sys.CompareGaps("cmp1", "canvsnor", "canvscnif", core.OpIntersect)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Cols) != 2 {
		t.Errorf("compare cols = %v", cmp.Cols)
	}
	// Case study insight: gaps vs normal are larger than gaps vs
	// cancer-outside ("the expression values of the cancerous tissues inside
	// and outside of the fascicle are more similar than ... normal").
	var sumNor, sumCnif float64
	var n int
	for _, r := range cmp.Rows {
		if !r.Values[0].Null && !r.Values[1].Null {
			sumNor += abs(r.Values[0].V)
			sumCnif += abs(r.Values[1].V)
			n++
		}
	}
	if n > 0 && sumNor <= sumCnif {
		t.Errorf("expected |gap vs normal| (%.1f) > |gap vs cancer-outside| (%.1f)", sumNor, sumCnif)
	}
	_ = pure

	// Catalog rows recorded.
	ci, err := sys.Store.Get(TblGapCompInfo)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Len() != 1 {
		t.Errorf("GapCompInfo = %d rows", ci.Len())
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestCustomDataset(t *testing.T) {
	sys, _ := newSystem(t)
	names := []string{sys.Data.Libs[0].Name, sys.Data.Libs[5].Name}
	d, err := sys.CreateCustomDataset("newBrain", names)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumLibraries() != 2 {
		t.Errorf("custom dataset = %d libraries", d.NumLibraries())
	}
	if _, err := sys.CreateCustomDataset("bad", []string{"nope"}); err == nil {
		t.Error("unknown library: expected error")
	}
}

func TestSearches(t *testing.T) {
	sys, _ := newSystem(t)
	m, err := sys.LibraryInfo("1")
	if err != nil || m.ID != 1 {
		t.Errorf("LibraryInfo by ID = %+v, %v", m, err)
	}
	m2, err := sys.LibraryInfo(m.Name)
	if err != nil || m2.Name != m.Name {
		t.Errorf("LibraryInfo by name = %+v, %v", m2, err)
	}
	if _, err := sys.LibraryInfo("nope"); err == nil {
		t.Error("unknown library: expected error")
	}
	tt := sys.TissueTypes()
	if len(tt["brain"]) == 0 {
		t.Errorf("TissueTypes = %v", tt)
	}
}

func TestRegisterSumyAndGap(t *testing.T) {
	sys, _ := newSystem(t)
	groups, _ := runBrainPipeline(t, sys)
	src, err := sys.Sumy(groups.InFascicle)
	if err != nil {
		t.Fatal(err)
	}
	sel, _, err := core.SelectSumyWith(exec.Background(), "mySelection", src, func(core.SumyRow) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterSumy(sel, "select", groups.InFascicle); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterSumy(sel, "select", groups.InFascicle); err == nil {
		t.Error("duplicate register: expected error")
	}
	if _, err := sys.Sumy("mySelection"); err != nil {
		t.Error("registered sumy not retrievable")
	}
}

func TestCalculateFasciclesRequiresMetadata(t *testing.T) {
	sys, _ := newSystem(t)
	if _, err := sys.CreateTissueDataset("brain"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CalculateFascicles("brain", FascicleOptions{K: 10, MinSize: 2}); err == nil {
		t.Error("missing metadata: expected error")
	}
}

func TestSkipCleaning(t *testing.T) {
	res, err := sagegen.Generate(sagegen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(res.Corpus, Options{SkipCleaning: true})
	if err != nil {
		t.Fatal(err)
	}
	if sys.CleanReport != nil {
		t.Error("SkipCleaning produced a report")
	}
	if sys.Data.NumTags() <= 0 {
		t.Error("no data")
	}
}

// TestDropAndRegenerate exercises the Section 4.4.2 space-reclamation path:
// drop a chain of derived tables, then rebuild them by metadata replay.
func TestDropAndRegenerate(t *testing.T) {
	sys, _ := newSystem(t)
	groups, _ := runBrainPipeline(t, sys)
	orig, err := sys.CreateGap("dropGap", groups.InFascicle, groups.Opposite)
	if err != nil {
		t.Fatal(err)
	}
	origTop, err := sys.CalculateTopGap("dropGap", 7)
	if err != nil {
		t.Fatal(err)
	}
	origRows := append([]core.GapRow(nil), origTop.Rows...)

	// Drop both the gap and its top-gap table.
	if err := sys.DropContents("dropGap"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DropContents("dropGap_7"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Gap("dropGap"); err == nil {
		t.Fatal("contents not dropped")
	}

	// Regenerating the top gap must transitively rebuild the gap first.
	top, err := sys.Regenerate("dropGap_7")
	if err != nil {
		t.Fatal(err)
	}
	if top.Len() != len(origRows) {
		t.Fatalf("regenerated top has %d rows, want %d", top.Len(), len(origRows))
	}
	for i, r := range top.Rows {
		if r.Tag != origRows[i].Tag || r.Values[0] != origRows[i].Values[0] {
			t.Fatalf("row %d differs after regeneration: %+v vs %+v", i, r, origRows[i])
		}
	}
	// The intermediate gap is back too, identical in size.
	g, err := sys.Gap("dropGap")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != orig.Len() {
		t.Errorf("regenerated gap has %d rows, want %d", g.Len(), orig.Len())
	}
	// Lineage flags cleared.
	node, _ := sys.Lineage.Get("dropGap")
	if node.ContentsDropped {
		t.Error("lineage still marks contents dropped")
	}
}

func TestDropContentsValidation(t *testing.T) {
	sys, _ := newSystem(t)
	_, pure := runBrainPipeline(t, sys)
	if err := sys.DropContents(pure); err == nil {
		t.Error("dropping a fascicle: expected error")
	}
	if err := sys.DropContents("nope"); err == nil {
		t.Error("dropping unknown table: expected error")
	}
	if _, err := sys.Regenerate("nope"); err == nil {
		t.Error("regenerating unknown table: expected error")
	}
}

// TestRegenerateCompare replays a compare node.
func TestRegenerateCompare(t *testing.T) {
	sys, _ := newSystem(t)
	groups, _ := runBrainPipeline(t, sys)
	if _, err := sys.CreateGap("rg1", groups.InFascicle, groups.Opposite); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateGap("rg2", groups.InFascicle, groups.SameNotInFascicle); err != nil {
		t.Fatal(err)
	}
	orig, err := sys.CompareGaps("rgCmp", "rg1", "rg2", core.OpIntersect)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DropContents("rgCmp"); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Regenerate("rgCmp")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() || len(got.Cols) != len(orig.Cols) {
		t.Errorf("regenerated compare differs: %dx%d vs %dx%d",
			got.Len(), len(got.Cols), orig.Len(), len(orig.Cols))
	}
}

// TestFormSUMRegenerateConcurrent races two FormSUMs on one fascicle,
// then a Regenerate beside CreateGap calls. Both compute outside the
// registry lock, so under -race this pins that they share no state
// unsafely, and that the FormSUM losing the race returns the winner's
// tables.
func TestFormSUMRegenerateConcurrent(t *testing.T) {
	sys, _ := newSystem(t)
	if _, err := sys.CreateTissueDataset("brain"); err != nil {
		t.Fatal(err)
	}
	if err := sys.GenerateMetadata("brain", 10); err != nil {
		t.Fatal(err)
	}
	pure, err := sys.FindPureFascicle("brain", sage.PropCancer, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var groups [2]CaseGroups
	var errs [2]error
	for i := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			groups[i], errs[i] = sys.FormSUM(pure, "brain")
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("FormSUM %d: %v", i, err)
		}
	}
	if groups[0] != groups[1] {
		t.Fatalf("racing FormSUMs returned %+v and %+v", groups[0], groups[1])
	}
	g := groups[0]

	if _, err := sys.CreateGap("raceGap", g.InFascicle, g.Opposite); err != nil {
		t.Fatal(err)
	}
	want, err := sys.CalculateTopGap("raceGap", 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"raceGap", "raceGap_5"} {
		if err := sys.DropContents(n); err != nil {
			t.Fatal(err)
		}
	}
	var regenerated *core.Gap
	var regenErr error
	gapErrs := make([]error, 3)
	wg.Add(1 + len(gapErrs))
	go func() {
		defer wg.Done()
		regenerated, regenErr = sys.Regenerate("raceGap_5")
	}()
	for i := range gapErrs {
		go func() {
			defer wg.Done()
			_, gapErrs[i] = sys.CreateGap(fmt.Sprintf("raceSide%d", i), g.InFascicle, g.SameNotInFascicle)
		}()
	}
	wg.Wait()
	if regenErr != nil {
		t.Fatalf("Regenerate: %v", regenErr)
	}
	if regenerated.Len() != want.Len() {
		t.Errorf("regenerated top gap has %d rows, want %d", regenerated.Len(), want.Len())
	}
	for i, err := range gapErrs {
		if err != nil {
			t.Errorf("CreateGap %d beside Regenerate: %v", i, err)
		}
	}
}

func TestPurityCheckAndRegisterGap(t *testing.T) {
	sys, _ := newSystem(t)
	groups, pure := runBrainPipeline(t, sys)

	ok, err := sys.PurityCheck(pure, sage.PropCancer)
	if err != nil || !ok {
		t.Errorf("PurityCheck(cancer) = %v, %v", ok, err)
	}
	ok, err = sys.PurityCheck(pure, sage.PropNormal)
	if err != nil || ok {
		t.Errorf("PurityCheck(normal) = %v, %v", ok, err)
	}
	if _, err := sys.PurityCheck("nope", sage.PropCancer); err == nil {
		t.Error("PurityCheck(unknown): expected error")
	}

	// RegisterGap: an externally derived gap joins the session.
	a, err := sys.Sumy(groups.InFascicle)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Sumy(groups.Opposite)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := core.DiffWith(exec.Background(), "externalGap", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterGap(g, "diff", groups.InFascicle, groups.Opposite); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Gap("externalGap"); err != nil {
		t.Error("registered gap not retrievable")
	}
	if err := sys.RegisterGap(g, "diff"); err == nil {
		t.Error("duplicate RegisterGap: expected error")
	}
}

func TestErrExistsMessage(t *testing.T) {
	e := ErrExists{Name: "brain"}
	if e.Error() != `system: "brain" already exists` {
		t.Errorf("ErrExists message = %q", e.Error())
	}
}

func TestGapOperationErrorPaths(t *testing.T) {
	sys, _ := newSystem(t)
	groups, _ := runBrainPipeline(t, sys)
	// CreateGap with unknown summaries.
	if _, err := sys.CreateGap("g", "nope", groups.Opposite); err == nil {
		t.Error("CreateGap(bad sumy1): expected error")
	}
	if _, err := sys.CreateGap("g", groups.InFascicle, "nope"); err == nil {
		t.Error("CreateGap(bad sumy2): expected error")
	}
	// Duplicate gap name.
	if _, err := sys.CreateGap("dupGap", groups.InFascicle, groups.Opposite); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateGap("dupGap", groups.InFascicle, groups.Opposite); err == nil {
		t.Error("duplicate CreateGap: expected error")
	}
	// CalculateTopGap on unknown gap.
	if _, err := sys.CalculateTopGap("nope", 5); err == nil {
		t.Error("CalculateTopGap(unknown): expected error")
	}
	// CompareGaps with unknown inputs and duplicate name.
	if _, err := sys.CompareGaps("c", "nope", "dupGap", core.OpUnion); err == nil {
		t.Error("CompareGaps(bad gap1): expected error")
	}
	if _, err := sys.CompareGaps("c", "dupGap", "nope", core.OpUnion); err == nil {
		t.Error("CompareGaps(bad gap2): expected error")
	}
	if _, err := sys.CreateGap("other", groups.InFascicle, groups.SameNotInFascicle); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CompareGaps("dupGap", "dupGap", "other", core.OpUnion); err == nil {
		t.Error("CompareGaps over existing name: expected error")
	}
}

func TestReplayRejectsUnreplayableNode(t *testing.T) {
	sys, _ := newSystem(t)
	_, pure := runBrainPipeline(t, sys)
	// A fascicle node is not replayable through the gap executor; force the
	// path by marking it dropped at the lineage level.
	if err := sys.Lineage.DropContents(pure); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Regenerate(pure); err == nil {
		t.Error("regenerating a mine node: expected error")
	}
}

// TestAppendixIVCatalogWiring verifies that the case-study pipeline fills
// the Appendix IV relations as the thesis's DB2 schema intends.
func TestAppendixIVCatalogWiring(t *testing.T) {
	sys, _ := newSystem(t)
	groups, pure := runBrainPipeline(t, sys)
	if _, err := sys.CreateGap("awGap", groups.InFascicle, groups.Opposite); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CalculateTopGap("awGap", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateGap("awGap2", groups.InFascicle, groups.SameNotInFascicle); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CompareGaps("awCmp", "awGap", "awGap2", core.OpIntersect); err != nil {
		t.Fatal(err)
	}

	get := func(name string) int {
		t.Helper()
		tbl, err := sys.Store.Get(name)
		if err != nil {
			t.Fatalf("catalog relation %s missing: %v", name, err)
		}
		return tbl.Len()
	}

	// Libraries / TypeInfo / SageInfo filled at load.
	if get(TblLibraries) != sys.Data.NumLibraries() {
		t.Error("Libraries incomplete")
	}
	if get(TblTypeInfo) != sys.Data.NumLibraries() {
		t.Error("TypeInfo incomplete")
	}
	if get(TblSageInfo) != 1 {
		t.Error("SageInfo incomplete")
	}
	// TypeCreateInfo records the brain data set.
	if get(TblTypeCreateInfo) < 1 {
		t.Error("TypeCreateInfo empty")
	}
	// FasFile: one row per mining run; FasInfo: one per fascicle; fasLib:
	// membership rows.
	if get(TblFasFile) < 1 || get(TblFasInfo) < 1 || get(TblFasLib) < 3 {
		t.Errorf("fascicle catalog rows: FasFile=%d FasInfo=%d fasLib=%d",
			get(TblFasFile), get(TblFasInfo), get(TblFasLib))
	}
	// The pure fascicle's FasInfo row carries the purity flags.
	fasInfo, _ := sys.Store.Get(TblFasInfo)
	found := false
	for _, r := range fasInfo.Rows {
		if r[1].Str() == pure {
			found = true
			if r[3].Int() != 1 { // Cancer flag
				t.Errorf("FasInfo cancer flag = %v", r[3])
			}
			if r[4].Int() != 0 { // Normal flag
				t.Errorf("FasInfo normal flag = %v", r[4])
			}
		}
	}
	if !found {
		t.Errorf("no FasInfo row for %s", pure)
	}
	// SumInfo/SumLib: three summaries for the case groups.
	if get(TblSumInfo) < 3 || get(TblSumLib) < 3 {
		t.Errorf("summary catalog rows: SumInfo=%d SumLib=%d", get(TblSumInfo), get(TblSumLib))
	}
	// GapInfo / TopRec / GapCompInfo / CDInfo.
	if get(TblGapInfo) < 2 {
		t.Error("GapInfo missing rows")
	}
	if get(TblTopRec) != 1 {
		t.Error("TopRec missing row")
	}
	if get(TblGapCompInfo) != 1 {
		t.Error("GapCompInfo missing row")
	}
	if get(TblCDInfo) < 1 {
		t.Error("CDInfo missing the chosen per-tissue threshold")
	}
	// Rows carry the session user.
	ff, _ := sys.Store.Get(TblFasFile)
	if ff.Rows[0][0].Str() != "jessica" {
		t.Errorf("FasFile user = %q", ff.Rows[0][0].Str())
	}
}

// TestListingWindows covers the Figure 4.19/4.20 browsing queries.
func TestListingWindows(t *testing.T) {
	sys, _ := newSystem(t)
	groups, pure := runBrainPipeline(t, sys)
	if _, err := sys.CreateGap("lw1", groups.InFascicle, groups.Opposite); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateGap("lw2", groups.InFascicle, groups.SameNotInFascicle); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CalculateTopGap("lw1", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CalculateTopGap("lw1", 10); err != nil {
		t.Fatal(err)
	}

	sumys, err := sys.ListSumys(pure)
	if err != nil {
		t.Fatal(err)
	}
	if len(sumys) != 3 {
		t.Errorf("ListSumys(%s) = %v", pure, sumys)
	}
	all, err := sys.ListSumys("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < len(sumys) {
		t.Error("ListSumys(all) smaller than per-fascicle list")
	}

	gaps, err := sys.ListGaps(groups.InFascicle)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 2 {
		t.Errorf("ListGaps(%s) = %v", groups.InFascicle, gaps)
	}
	gapsOpp, err := sys.ListGaps(groups.Opposite)
	if err != nil {
		t.Fatal(err)
	}
	if len(gapsOpp) != 1 || gapsOpp[0] != "lw1" {
		t.Errorf("ListGaps(opposite) = %v", gapsOpp)
	}

	tops, err := sys.ListTopGaps("lw1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) != 2 || tops[0] != "lw1_10" || tops[1] != "lw1_5" {
		t.Errorf("ListTopGaps = %v", tops)
	}
	if tops2, _ := sys.ListTopGaps(""); len(tops2) != 2 {
		t.Errorf("ListTopGaps(all) = %v", tops2)
	}
}

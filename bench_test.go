package gea

// This file holds one benchmark per table and figure of the thesis's
// evaluation (see DESIGN.md's per-experiment index), plus the ablation
// benches the design calls out. `go test -bench=. -benchmem` regenerates the
// performance side of EXPERIMENTS.md; the value side is produced by
// cmd/geabench.

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// fixture is the shared benchmark corpus: generated once, cleaned once.
type fixture struct {
	res    *GenResult
	sys    *System
	brain  *Dataset
	groups CaseGroups
	pure   string
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		res, err := Generate(SmallConfig())
		if err != nil {
			fixErr = err
			return
		}
		sys, err := NewSystem(res.Corpus, SystemOptions{User: "bench", Catalog: res.Catalog, GeneDBSeed: 1})
		if err != nil {
			fixErr = err
			return
		}
		brain, err := sys.CreateTissueDataset("brain")
		if err != nil {
			fixErr = err
			return
		}
		if err := sys.GenerateMetadata("brain", 10); err != nil {
			fixErr = err
			return
		}
		pure, err := sys.FindPureFascicle("brain", PropCancer, 3)
		if err != nil {
			fixErr = err
			return
		}
		groups, err := sys.FormSUM(pure, "brain")
		if err != nil {
			fixErr = err
			return
		}
		fix = &fixture{res: res, sys: sys, brain: brain, groups: groups, pure: pure}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// mustSumy fetches a registered SUMY table.
func mustSumy(b *testing.B, f *fixture, name string) *Sumy {
	b.Helper()
	s, err := f.sys.Sumy(name)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// ------------------------------------------------------------- Table 2.2

// BenchmarkTable22FascicleExample mines the Section 2.5.1 worked example.
func BenchmarkTable22FascicleExample(b *testing.B) {
	tags := []TagID{
		MustParseTag("AAAAAAAAAA"), MustParseTag("AAAAAAAAAC"), MustParseTag("AAAAAAAAAT"),
		MustParseTag("AAAAAACTCC"), MustParseTag("AAAAAGAAAA"),
	}
	vals := [][]float64{
		{1843, 3, 10, 15, 11}, {1418, 7, 0, 30, 12}, {1251, 18, 0, 33, 20},
		{1800, 0, 58, 40, 20}, {1050, 25, 1, 60, 15}, {1910, 1, 17, 74, 30},
		{503, 8, 0, 0, 456}, {364, 7, 7, 7, 222}, {65, 5, 79, 9, 300}, {847, 4, 124, 0, 500},
	}
	c := &Corpus{}
	for i, row := range vals {
		l := &Library{Meta: LibraryMeta{ID: i + 1, Name: string(rune('a' + i)), Tissue: "brain"},
			Counts: map[TagID]float64{}}
		for j, v := range row {
			if v != 0 {
				l.Counts[tags[j]] = v
			}
		}
		c.Libraries = append(c.Libraries, l)
	}
	d := BuildDatasetWithTags(c, tags)
	tol := map[TagID]float64{tags[0]: 120, tags[1]: 3, tags[2]: 48, tags[3]: 60, tags[4]: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MineFasciclesLattice(Background(), d, FascicleParams{K: 5, Tolerance: tol, MinSize: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------- Table 3.1

// BenchmarkTable31IndicesRequired computes the full Table 3.1.
func BenchmarkTable31IndicesRequired(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table31(60000, 25000, 10, DefaultConfidence)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].M != 17 {
			b.Fatalf("Table 3.1 drifted: %v", rows[0])
		}
	}
}

// ------------------------------------------------------------- Table 3.2

// benchPopulate is the Table 3.2 workload: a SUMY over 40% of the tags
// evaluated against the whole dataset, with w index hits.
func benchPopulate(b *testing.B, w int) {
	f := getFixture(b)
	d := f.sys.Data
	p := d.NumTags() * 2 / 5
	cols := make([]int, p)
	for j := range cols {
		cols[j] = j
	}
	rows := d.RowsWhere(func(m LibraryMeta) bool { return m.State == Cancer })[:6]
	enum, err := NewEnum("benchCluster", d, rows, cols)
	if err != nil {
		b.Fatal(err)
	}
	sumy, _, err := Aggregate(Background(), "benchClusterSumy", enum, AggregateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var idx *TagIndexes
	if w > 0 {
		ranked := RankByEntropy(d)
		var inSumy []int
		for _, rt := range ranked {
			if _, ok := sumy.Row(rt.Tag); ok {
				inSumy = append(inSumy, rt.Col)
			}
			if len(inSumy) >= w {
				break
			}
		}
		idx, err = BuildTagIndexes(d, inSumy)
		if err != nil {
			b.Fatal(err)
		}
	}
	opts := PopulateOptions{SimulateRowFetch: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Populate(Background(), "benchPop", sumy, d, idx, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable32PopulateSequential(b *testing.B) { benchPopulate(b, 0) }
func BenchmarkTable32PopulateIndexedW1(b *testing.B)  { benchPopulate(b, 1) }
func BenchmarkTable32PopulateIndexedW2(b *testing.B)  { benchPopulate(b, 2) }
func BenchmarkTable32PopulateIndexedW4(b *testing.B)  { benchPopulate(b, 4) }
func BenchmarkTable32PopulateIndexedW8(b *testing.B)  { benchPopulate(b, 8) }

// ------------------------------------------------------- cleaning (§4.2)

// BenchmarkCleaningPipeline runs the full Section 4.2 pipeline.
func BenchmarkCleaningPipeline(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Clean(f.res.Corpus, DefaultCleanOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------- figures 4.2/4.3/4.11

// benchFigure extracts a marker gene's per-group distribution (the work
// behind each figure's bar chart).
func benchFigure(b *testing.B, gene string) {
	f := getFixture(b)
	g, ok := f.res.Catalog.ByName(gene)
	if !ok {
		b.Fatalf("marker %q missing", gene)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SingleTagSearch(f.brain, g.Tag, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig42RibosomalL12(b *testing.B) { benchFigure(b, GeneRibosomalL12) }
func BenchmarkFig43AlphaTubulin(b *testing.B) { benchFigure(b, GeneAlphaTubulin) }
func BenchmarkFig411ADPProtein(b *testing.B)  { benchFigure(b, GeneADPProtein) }

// ------------------------------------------------------------ case studies

// BenchmarkCase1DiffAndTop runs diff + top-gap extraction of case study 1.
func BenchmarkCase1DiffAndTop(b *testing.B) {
	f := getFixture(b)
	s1 := mustSumy(b, f, f.groups.InFascicle)
	s3 := mustSumy(b, f, f.groups.Opposite)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, err := Diff(Background(), "case1Gap", s1, s3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := TopGaps("case1Top", g, 0, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCase2InsideVsOutside contrasts inside vs outside the fascicle.
func BenchmarkCase2InsideVsOutside(b *testing.B) {
	f := getFixture(b)
	s1 := mustSumy(b, f, f.groups.InFascicle)
	s2 := mustSumy(b, f, f.groups.SameNotInFascicle)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Diff(Background(), "case2Gap", s1, s2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCase3CompareQueries intersects two GAP tables and runs query 2.
func BenchmarkCase3CompareQueries(b *testing.B) {
	f := getFixture(b)
	s1 := mustSumy(b, f, f.groups.InFascicle)
	s2 := mustSumy(b, f, f.groups.SameNotInFascicle)
	s3 := mustSumy(b, f, f.groups.Opposite)
	g1, _, err := Diff(Background(), "b3g1", s1, s3)
	if err != nil {
		b.Fatal(err)
	}
	g2, _, err := Diff(Background(), "b3g2", s1, s2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := Compare("b3cmp", g1, g2, OpIntersect)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ApplyQuery("b3q2", cmp, QLowerInABoth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCase4SetMinus selects non-null gaps then set-minuses them.
func BenchmarkCase4SetMinus(b *testing.B) {
	f := getFixture(b)
	s1 := mustSumy(b, f, f.groups.InFascicle)
	s2 := mustSumy(b, f, f.groups.SameNotInFascicle)
	s3 := mustSumy(b, f, f.groups.Opposite)
	g1, _, err := Diff(Background(), "b4g1", s1, s3)
	if err != nil {
		b.Fatal(err)
	}
	g2, _, err := Diff(Background(), "b4g2", s1, s2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := SelectGap("b4a", g1, GapNonNull(0))
		if err != nil {
			b.Fatal(err)
		}
		c, err := SelectGap("b4c", g2, GapNonNull(0))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := MinusGap("b4m", a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCase5Verification re-derives a cluster in the extensional world.
func BenchmarkCase5Verification(b *testing.B) {
	f := getFixture(b)
	var keep []int
	for i := 1; i < f.brain.NumLibraries(); i++ {
		keep = append(keep, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := f.brain.Subset(keep)
		if err != nil {
			b.Fatal(err)
		}
		full := FullEnum("b5", sub)
		cancer := full.SelectRows("b5c", func(m LibraryMeta) bool { return m.State == Cancer })
		if _, _, err := Aggregate(Background(), "b5s", cancer, AggregateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// -------------------------------------------------------------- ablations

// BenchmarkFascicleLattice vs BenchmarkFascicleGreedy: exact vs single-pass
// mining (DESIGN.md ablation).
func BenchmarkFascicleLattice(b *testing.B) {
	f := getFixture(b)
	tol, err := ToleranceVector(f.brain, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := FascicleParams{K: f.brain.NumTags() * 55 / 100, Tolerance: tol, MinSize: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MineFasciclesLattice(Background(), f.brain, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFascicleGreedy(b *testing.B) {
	f := getFixture(b)
	tol, err := ToleranceVector(f.brain, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := FascicleParams{K: f.brain.NumTags() * 55 / 100, Tolerance: tol, MinSize: 3, BatchSize: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MineFasciclesGreedy(Background(), f.brain, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexSelectionEntropy vs Random: does the entropy heuristic beat
// random index placement at equal budget? Measured as candidate rows left
// after the index intersection (lower is better); the bench reports work via
// the populate path.
func BenchmarkIndexSelectionEntropy(b *testing.B) { benchIndexChoice(b, true) }
func BenchmarkIndexSelectionRandom(b *testing.B)  { benchIndexChoice(b, false) }

func benchIndexChoice(b *testing.B, entropy bool) {
	f := getFixture(b)
	d := f.sys.Data
	p := d.NumTags() / 2
	cols := make([]int, p)
	for j := range cols {
		cols[j] = j
	}
	rows := d.RowsWhere(func(m LibraryMeta) bool { return m.State == Cancer })[:6]
	enum, err := NewEnum("bic", d, rows, cols)
	if err != nil {
		b.Fatal(err)
	}
	sumy, _, err := Aggregate(Background(), "bicSumy", enum, AggregateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const m = 20
	var idxCols []int
	if entropy {
		for _, rt := range TopEntropyTags(d, m) {
			idxCols = append(idxCols, rt.Col)
		}
	} else {
		rng := rand.New(rand.NewSource(2))
		for len(idxCols) < m {
			idxCols = append(idxCols, rng.Intn(d.NumTags()))
		}
	}
	idx, err := BuildTagIndexes(d, idxCols)
	if err != nil {
		b.Fatal(err)
	}
	// The disk-resident evaluation model of Table 3.2: each examined row
	// costs a full fetch, so candidate reduction is what the bench measures.
	opts := PopulateOptions{SimulateRowFetch: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Populate(Background(), "bicPop", sumy, d, idx, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRotatedLayout measures the Section 4.6.1 physical rotation of the
// expression relation: 20 libraries x 200 tags, rotate plus a layout-adjusted
// per-tag sum.
func BenchmarkRotatedLayout(b *testing.B) {
	tbl := buildNaturalTable(20, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rot, err := NaturalToRotated(tbl)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RotatedSum(rot, tbl.Schema[1].Name); err != nil {
			b.Fatal(err)
		}
	}
}

func buildNaturalTable(libs, tags int) *RelTable {
	schema := RelSchema{{Name: "LibraryName", Kind: RelKindString}}
	for j := 0; j < tags; j++ {
		schema = append(schema, RelColumn{Name: TagID(j).String(), Kind: RelKindFloat})
	}
	tbl := NewRelTable("SAGE", schema)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < libs; i++ {
		row := make([]RelValue, 0, tags+1)
		row = append(row, RelS(string(rune('A'+i%26))+string(rune('a'+i/26))))
		for j := 0; j < tags; j++ {
			row = append(row, RelF(float64(rng.Intn(500))))
		}
		tbl.MustInsert(row...)
	}
	return tbl
}

// ------------------------------------------------------------- baselines

func baselineRows(b *testing.B) [][]float64 {
	f := getFixture(b)
	return f.brain.Expr
}

func BenchmarkBaselineHierarchical(b *testing.B) {
	rows := baselineRows(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dg, _, err := Hierarchical(Background(), rows, CorrelationDistance, AverageLinkage)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dg.Cut(2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineKMeans(b *testing.B) {
	rows := baselineRows(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := KMeans(Background(), rows, 2, rng, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineSOM(b *testing.B) {
	rows := baselineRows(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SOM(Background(), rows, SOMConfig{GridW: 2, GridH: 1, Epochs: 30}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineOPTICS(b *testing.B) {
	rows := baselineRows(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OPTICS(Background(), rows, OPTICSConfig{Eps: math.Inf(1), MinPts: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------- operator scaling

// BenchmarkAggregateFullDataset covers the one-pass aggregation claim.
func BenchmarkAggregateFullDataset(b *testing.B) {
	f := getFixture(b)
	full := FullEnum("bAgg", f.sys.Data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Aggregate(Background(), "bAggS", full, AggregateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateWithMedian covers the O(n log n) aggregate variant.
func BenchmarkAggregateWithMedian(b *testing.B) {
	f := getFixture(b)
	full := FullEnum("bAggM", f.sys.Data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Aggregate(Background(), "bAggMS", full, AggregateOptions{WithMedian: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiffFullWidth covers the linear-in-tags diff claim.
func BenchmarkDiffFullWidth(b *testing.B) {
	f := getFixture(b)
	full := FullEnum("bDiff", f.sys.Data)
	cancer := full.SelectRows("bDiffC", func(m LibraryMeta) bool { return m.State == Cancer })
	normal := full.SelectRows("bDiffN", func(m LibraryMeta) bool { return m.State == Normal })
	sc, _, err := Aggregate(Background(), "bDiffCS", cancer, AggregateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sn, _, err := Aggregate(Background(), "bDiffNS", normal, AggregateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Diff(Background(), "bDiffG", sc, sn); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"math"
	"testing"

	"gea/internal/clean"
	"gea/internal/exec"
	"gea/internal/fascicle"
	"gea/internal/interval"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

// smallDataset builds a 6-library, 4-tag dataset with obvious structure:
// rows 0-2 cancerous brain with a high signature tag, rows 3-4 normal brain,
// row 5 kidney.
func smallDataset() *sage.Dataset {
	tags := []sage.TagID{
		sage.MustParseTag("AAAAAAAAAA"), // signature: ~200 cancer, ~50 normal
		sage.MustParseTag("CCCCCCCCCC"), // flat
		sage.MustParseTag("GGGGGGGGGG"), // low in cancer
		sage.MustParseTag("TTTTTTTTTT"), // kidney only
	}
	type libSpec struct {
		name   string
		tissue string
		state  sage.NeoplasticState
		vals   [4]float64
	}
	specs := []libSpec{
		{"BC1", "brain", sage.Cancer, [4]float64{200, 10, 1, 0}},
		{"BC2", "brain", sage.Cancer, [4]float64{205, 11, 2, 0}},
		{"BC3", "brain", sage.Cancer, [4]float64{195, 9, 0, 0}},
		{"BN1", "brain", sage.Normal, [4]float64{50, 10, 90, 0}},
		{"BN2", "brain", sage.Normal, [4]float64{55, 11, 85, 0}},
		{"K1", "kidney", sage.Cancer, [4]float64{0, 10, 0, 400}},
	}
	c := &sage.Corpus{}
	for i, s := range specs {
		l := sage.NewLibrary(sage.LibraryMeta{
			ID: i + 1, Name: s.name, Tissue: s.tissue, State: s.state, Source: sage.BulkTissue,
		})
		for j, v := range s.vals {
			if v != 0 {
				l.Add(tags[j], v)
			}
		}
		c.Libraries = append(c.Libraries, l)
	}
	return sage.BuildWithTags(c, tags)
}

func TestEnumBasics(t *testing.T) {
	d := smallDataset()
	full := FullEnum("SAGE", d)
	if full.Size() != 6 || full.NumTags() != 4 {
		t.Fatalf("full enum = %d x %d", full.Size(), full.NumTags())
	}
	if full.Value(0, 0) != 200 {
		t.Errorf("Value = %v", full.Value(0, 0))
	}
	if full.Meta(5).Tissue != "kidney" {
		t.Errorf("Meta = %+v", full.Meta(5))
	}
	names := full.LibraryNames()
	if names[0] != "BC1" || names[5] != "K1" {
		t.Errorf("names = %v", names)
	}
	tagList := full.Tags()
	if len(tagList) != 4 || tagList[0] != d.Tags[0] {
		t.Errorf("tags = %v", tagList)
	}
}

func TestNewEnumValidation(t *testing.T) {
	d := smallDataset()
	if _, err := NewEnum("e", d, []int{99}, nil); err == nil {
		t.Error("row out of range: expected error")
	}
	if _, err := NewEnum("e", d, nil, []int{-1}); err == nil {
		t.Error("col out of range: expected error")
	}
	// Duplicates and disorder normalize.
	e, err := NewEnum("e", d, []int{3, 1, 3}, []int{2, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 2 || e.Rows[0] != 1 || e.Rows[1] != 3 {
		t.Errorf("rows = %v", e.Rows)
	}
	if e.NumTags() != 2 || e.Cols[0] != 0 || e.Cols[1] != 2 {
		t.Errorf("cols = %v", e.Cols)
	}
}

func TestEnumSelectAndSetOps(t *testing.T) {
	d := smallDataset()
	full := FullEnum("SAGE", d)
	brain := full.SelectRows("Ebrain", func(m sage.LibraryMeta) bool { return m.Tissue == "brain" })
	if brain.Size() != 5 {
		t.Fatalf("brain = %d rows", brain.Size())
	}
	cancer := brain.SelectRows("cancer", func(m sage.LibraryMeta) bool { return m.State == sage.Cancer })
	if cancer.Size() != 3 {
		t.Fatalf("cancer = %d rows", cancer.Size())
	}
	rest, err := brain.MinusRows("rest", cancer)
	if err != nil {
		t.Fatal(err)
	}
	if rest.Size() != 2 {
		t.Errorf("minus = %d rows", rest.Size())
	}
	both, err := brain.IntersectRows("both", cancer)
	if err != nil {
		t.Fatal(err)
	}
	if both.Size() != 3 {
		t.Errorf("intersect = %d rows", both.Size())
	}
	all, err := cancer.UnionRows("all", rest)
	if err != nil {
		t.Fatal(err)
	}
	if all.Size() != 5 {
		t.Errorf("union = %d rows", all.Size())
	}
	if !cancer.IsPure(sage.PropCancer) || cancer.IsPure(sage.PropNormal) {
		t.Error("purity check wrong")
	}
	// Different base datasets refuse to combine.
	other := FullEnum("other", smallDataset())
	if _, err := brain.MinusRows("x", other); err == nil {
		t.Error("cross-base minus: expected error")
	}
	if _, err := brain.IntersectRows("x", other); err == nil {
		t.Error("cross-base intersect: expected error")
	}
	if _, err := brain.UnionRows("x", other); err == nil {
		t.Error("cross-base union: expected error")
	}
}

func TestAggregate(t *testing.T) {
	d := smallDataset()
	cancer := FullEnum("SAGE", d).SelectRows("cancer",
		func(m sage.LibraryMeta) bool { return m.Tissue == "brain" && m.State == sage.Cancer })
	s, _, err := AggregateWith(exec.Background(), "s", cancer, AggregateOptions{WithMedian: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("sumy = %d rows", s.Len())
	}
	r, ok := s.Row(sage.MustParseTag("AAAAAAAAAA"))
	if !ok {
		t.Fatal("signature tag missing")
	}
	if r.Range.Min != 195 || r.Range.Max != 205 {
		t.Errorf("range = %v", r.Range)
	}
	if math.Abs(r.Mean-200) > 1e-9 {
		t.Errorf("mean = %v", r.Mean)
	}
	wantStd := math.Sqrt((25 + 0 + 25) / 3.0)
	if math.Abs(r.Std-wantStd) > 1e-9 {
		t.Errorf("std = %v, want %v", r.Std, wantStd)
	}
	if med := r.Extra["median"]; med != 200 {
		t.Errorf("median = %v", med)
	}

	empty := cancer.SelectRows("none", func(sage.LibraryMeta) bool { return false })
	if _, _, err := AggregateWith(exec.Background(), "s", empty, AggregateOptions{}); err == nil {
		t.Error("aggregate of empty enum: expected error")
	}
}

func TestSelectSumyRangeArithmetic(t *testing.T) {
	d := smallDataset()
	s, _, err := AggregateWith(exec.Background(), "s", FullEnum("SAGE", d), AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Tags whose range overlaps (broadly) [80, 500]: signature (0..205),
	// GGGG (0..90), TTTT (0..400).
	hits, _, err := SelectSumyWith(exec.Background(), "hits", s, RangeAnyOverlap(interval.New(80, 500)))
	if err != nil {
		t.Fatal(err)
	}
	if hits.Len() != 3 {
		t.Errorf("broad overlap = %d tags", hits.Len())
	}
	// Strict Allen relation: tags whose range includes [1, 2]. Three tags
	// have ranges [0, hi] with hi > 2; the flat tag's range is [9, 11].
	inc, _, err := SelectSumyWith(exec.Background(), "inc", s, RangeRelation(interval.Includes, interval.New(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if inc.Len() != 3 {
		t.Errorf("includes = %d tags", inc.Len())
	}
}

func TestProjectSumyAndSetOps(t *testing.T) {
	d := smallDataset()
	e := FullEnum("SAGE", d)
	s, _, err := AggregateWith(exec.Background(), "s", e, AggregateOptions{WithMedian: true})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := ProjectSumyWith(exec.Background(), "p", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ExtraCols) != 0 || p.Rows[0].Extra != nil {
		t.Error("projection kept extra columns")
	}
	pm, _, err := ProjectSumyWith(exec.Background(), "pm", s, []string{"median"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.ExtraCols) != 1 || pm.Rows[0].Extra["median"] == 0 && pm.Rows[0].Tag == s.Rows[0].Tag && s.Rows[0].Extra["median"] != 0 {
		t.Error("projection dropped requested column")
	}

	s2 := NewSumy("s2", []SumyRow{
		{Tag: d.Tags[0], Range: interval.New(0, 1), Mean: 0.5, Std: 0.1},
	}, nil)
	minus, _, err := MinusSumyWith(exec.Background(), "m", s, s2)
	if err != nil {
		t.Fatal(err)
	}
	if minus.Len() != 3 {
		t.Errorf("sumy minus = %d", minus.Len())
	}
	inter, _, err := IntersectSumyWith(exec.Background(), "i", s, s2)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Len() != 1 || inter.Rows[0].Mean == 0.5 {
		t.Errorf("sumy intersect = %+v (must keep a's aggregates)", inter.Rows)
	}
	un, _, err := UnionSumyWith(exec.Background(), "u", minus, s2)
	if err != nil {
		t.Fatal(err)
	}
	if un.Len() != 4 {
		t.Errorf("sumy union = %d", un.Len())
	}
}

func TestPopulateSequential(t *testing.T) {
	d := smallDataset()
	cancer := FullEnum("SAGE", d).SelectRows("cancer",
		func(m sage.LibraryMeta) bool { return m.Tissue == "brain" && m.State == sage.Cancer })
	s, _, err := AggregateWith(exec.Background(), "s", cancer, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, st, _, err := PopulateWith(exec.Background(), "e", s, d, nil, PopulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexesHit != 0 || st.CandidateRows != 6 {
		t.Errorf("stats = %+v", st)
	}
	// The three cancer libraries satisfy their own ranges; normals and
	// kidney do not (signature out of range).
	if e.Size() != 3 {
		t.Fatalf("populate = %d rows: %v", e.Size(), e.LibraryNames())
	}
	for _, n := range e.LibraryNames() {
		if n[0] != 'B' || n[1] != 'C' {
			t.Errorf("unexpected member %s", n)
		}
	}
}

func TestPopulateIndexedMatchesSequential(t *testing.T) {
	res, err := sagegen.Generate(sagegen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleaned, _, err := clean.Clean(res.Corpus, clean.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := sage.Build(cleaned)
	brainRows := d.RowsByTissue("brain")
	cancerRows := brainRows[:4]
	e, err := NewEnum("core", d, cancerRows, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Summarize over every tag.
	cols := make([]int, d.NumTags())
	for j := range cols {
		cols[j] = j
	}
	e.Cols = cols
	s, _, err := AggregateWith(exec.Background(), "s", e, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	seq, seqSt, _, err := PopulateWith(exec.Background(), "seq", s, d, nil, PopulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildTagIndexes(d, []int{0, 1, 2, 3, 4, 50, 100})
	if err != nil {
		t.Fatal(err)
	}
	ind, indSt, _, err := PopulateWith(exec.Background(), "ind", s, d, idx, PopulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) != len(ind.Rows) {
		t.Fatalf("sequential %d rows vs indexed %d rows", len(seq.Rows), len(ind.Rows))
	}
	for i := range seq.Rows {
		if seq.Rows[i] != ind.Rows[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	if indSt.IndexesHit != 7 {
		t.Errorf("indexes hit = %d, want 7", indSt.IndexesHit)
	}
	if indSt.CandidateRows > seqSt.CandidateRows {
		t.Errorf("indexed candidates %d > sequential %d", indSt.CandidateRows, seqSt.CandidateRows)
	}
}

func TestPopulateErrors(t *testing.T) {
	d := smallDataset()
	empty := NewSumy("empty", nil, nil)
	if _, _, _, err := PopulateWith(exec.Background(), "e", empty, d, nil, PopulateOptions{}); err == nil {
		t.Error("empty sumy: expected error")
	}
	s := NewSumy("s", []SumyRow{{Tag: d.Tags[0], Range: interval.New(0, 1)}}, nil)
	otherIdx, err := BuildTagIndexes(smallDataset(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := PopulateWith(exec.Background(), "e", s, d, otherIdx, PopulateOptions{}); err == nil {
		t.Error("foreign indexes: expected error")
	}
	if _, err := BuildTagIndexes(d, []int{99}); err == nil {
		t.Error("bad index column: expected error")
	}
}

func TestPopulateMissingTagTreatedAsZero(t *testing.T) {
	d := smallDataset()
	foreign := sage.MustParseTag("ACACACACAC")
	// Range includes 0: all rows match.
	s := NewSumy("s", []SumyRow{{Tag: foreign, Range: interval.New(0, 5)}}, nil)
	e, _, _, err := PopulateWith(exec.Background(), "e", s, d, nil, PopulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 6 {
		t.Errorf("zero-in-range populate = %d rows", e.Size())
	}
	// Range excludes 0: no rows match.
	s2 := NewSumy("s2", []SumyRow{{Tag: foreign, Range: interval.New(1, 5)}}, nil)
	e2, _, _, err := PopulateWith(exec.Background(), "e2", s2, d, nil, PopulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Size() != 0 {
		t.Errorf("zero-out-of-range populate = %d rows", e2.Size())
	}
}

// TestMineLatticePopulateClosure checks the closure property: for the exact
// lattice miner, populate(aggregate(fascicle)) returns exactly the fascicle
// members (any extra member would contradict maximality).
func TestMineLatticePopulateClosure(t *testing.T) {
	res, err := sagegen.Generate(sagegen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleaned, _, err := clean.Clean(res.Corpus, clean.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := sage.Build(cleaned)
	brain, err := d.SubsetByTissue("brain")
	if err != nil {
		t.Fatal(err)
	}
	tol, err := clean.ToleranceVector(brain, 10)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := MineWith(exec.Background(), "brain", brain, fascicle.Params{
		K: brain.NumTags() * 55 / 100, Tolerance: tol, MinSize: 3,
	}, LatticeAlgorithm)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no fascicles mined")
	}
	for i, r := range results {
		if len(r.Enum.Rows) != len(r.Fascicle.Rows) {
			t.Errorf("fascicle %d: populate returned %d rows, members %d",
				i, len(r.Enum.Rows), len(r.Fascicle.Rows))
			continue
		}
		for k := range r.Enum.Rows {
			if r.Enum.Rows[k] != r.Fascicle.Rows[k] {
				t.Errorf("fascicle %d row %d: %d vs %d", i, k, r.Enum.Rows[k], r.Fascicle.Rows[k])
			}
		}
		if r.Sumy.Len() != r.Fascicle.NumCompact() {
			t.Errorf("fascicle %d: sumy %d tags, compact %d", i, r.Sumy.Len(), r.Fascicle.NumCompact())
		}
	}
}

func TestMineGreedy(t *testing.T) {
	d := smallDataset()
	tol := map[sage.TagID]float64{}
	for j, tg := range d.Tags {
		lo, hi := d.Expr[0][j], d.Expr[0][j]
		for i := range d.Expr {
			v := d.Expr[i][j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		tol[tg] = (hi - lo) * 0.2
	}
	results, _, err := MineWith(exec.Background(), "small", d, fascicle.Params{K: 3, Tolerance: tol, MinSize: 2}, GreedyAlgorithm)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("greedy mined nothing")
	}
	for _, r := range results {
		if r.Sumy == nil || r.Enum == nil || r.Fascicle == nil {
			t.Fatal("incomplete mine result")
		}
	}
}

func TestMineInvalidParams(t *testing.T) {
	d := smallDataset()
	if _, _, err := MineWith(exec.Background(), "x", d, fascicle.Params{K: 0, MinSize: 1}, LatticeAlgorithm); err == nil {
		t.Error("invalid params: expected error")
	}
}

package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gea/internal/exec"
	"gea/internal/interval"
	"gea/internal/sage"
)

func tag(n int) sage.TagID { return sage.TagID(n) }

// figure35Sumys builds the two SUMY tables of Figure 3.5.
func figure35Sumys() (*Sumy, *Sumy) {
	s1 := NewSumy("SUMY1", []SumyRow{
		{Tag: tag(1), Range: interval.New(5, 5), Mean: 5, Std: 0},
		{Tag: tag(2), Range: interval.New(0, 7), Mean: 3, Std: 1},
		{Tag: tag(3), Range: interval.New(10, 120), Mean: 70, Std: 15},
		{Tag: tag(4), Range: interval.New(0, 20), Mean: 10, Std: 4},
	}, nil)
	s2 := NewSumy("SUMY2", []SumyRow{
		{Tag: tag(1), Range: interval.New(0, 14), Mean: 7, Std: 1},
		{Tag: tag(3), Range: interval.New(10, 130), Mean: 60, Std: 25},
		{Tag: tag(4), Range: interval.New(0, 12), Mean: 3, Std: 1},
		{Tag: tag(5), Range: interval.New(0, 50), Mean: 20, Std: 15},
	}, nil)
	return s1, s2
}

// TestDiffFigure35 reproduces the worked example of Figure 3.5 exactly:
// GAP = diff(SUMY1, SUMY2) has rows Tag1 = -1, Tag3 = NULL, Tag4 = +2.
func TestDiffFigure35(t *testing.T) {
	s1, s2 := figure35Sumys()
	g, _, err := DiffWith(exec.Background(), "GAP", s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("GAP has %d rows, want 3 (common tags only)", g.Len())
	}
	wantVals := map[sage.TagID]GapValue{
		tag(1): {V: -1},
		tag(3): NullGap,
		tag(4): {V: 2},
	}
	for tg, want := range wantVals {
		r, ok := g.Row(tg)
		if !ok {
			t.Fatalf("tag %v missing from GAP", tg)
		}
		got := r.Values[0]
		if got.Null != want.Null || (!got.Null && math.Abs(got.V-want.V) > 1e-12) {
			t.Errorf("tag %v: gap = %v, want %v", tg, got, want)
		}
	}
	// Tag2 and Tag5 are not common, so they must be absent.
	if _, ok := g.Row(tag(2)); ok {
		t.Error("tag2 should not appear")
	}
	if _, ok := g.Row(tag(5)); ok {
		t.Error("tag5 should not appear")
	}
}

// TestDiffAntisymmetric: diff(a,b) = -diff(b,a) with NULLs preserved.
func TestDiffAntisymmetric(t *testing.T) {
	s1, s2 := figure35Sumys()
	g1, _, err := DiffWith(exec.Background(), "g1", s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := DiffWith(exec.Background(), "g2", s2, s1)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Len() != g2.Len() {
		t.Fatal("lengths differ")
	}
	for _, r1 := range g1.Rows {
		r2, ok := g2.Row(r1.Tag)
		if !ok {
			t.Fatalf("tag %v missing from reversed diff", r1.Tag)
		}
		v1, v2 := r1.Values[0], r2.Values[0]
		if v1.Null != v2.Null {
			t.Errorf("tag %v: null mismatch", r1.Tag)
		}
		if !v1.Null && math.Abs(v1.V+v2.V) > 1e-12 {
			t.Errorf("tag %v: %v vs %v not antisymmetric", r1.Tag, v1.V, v2.V)
		}
	}
}

// Property-based: gap is NULL iff the mu±sigma bands overlap, and a non-null
// gap magnitude equals the band separation.
func TestDiffGapDefinitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mkRow := func() SumyRow {
			m := rng.Float64() * 100
			s := rng.Float64() * 20
			return SumyRow{Tag: tag(1), Range: interval.New(m-s, m+s), Mean: m, Std: s}
		}
		ra, rb := mkRow(), mkRow()
		got := gapOf(ra, rb)
		hi, lo := ra, rb
		if rb.Mean > ra.Mean {
			hi, lo = rb, ra
		}
		sep := (hi.Mean - hi.Std) - (lo.Mean + lo.Std)
		if sep <= 0 {
			return got.Null
		}
		if got.Null {
			return false
		}
		if math.Abs(math.Abs(got.V)-sep) > 1e-9 {
			return false
		}
		// Sign follows which table is higher.
		return (got.V > 0) == (ra.Mean > rb.Mean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func mustGap(t *testing.T, name string, vals map[int]GapValue) *Gap {
	t.Helper()
	var rows []GapRow
	for tg, v := range vals {
		rows = append(rows, GapRow{Tag: tag(tg), Values: []GapValue{v}})
	}
	g, err := NewGap(name, []string{"gap"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSetOpsFigure36 reproduces Figure 3.6: GAP3 = minus(GAP1, GAP2) keeps
// only Tag2; GAP4 = intersect(GAP1, GAP2) keeps Tag1/Tag3/Tag4 with two gap
// columns.
func TestSetOpsFigure36(t *testing.T) {
	g1 := mustGap(t, "GAP1", map[int]GapValue{
		1: {V: -11}, 2: {V: 2}, 3: NullGap, 4: {V: 5},
	})
	g2 := mustGap(t, "GAP2", map[int]GapValue{
		1: {V: -8}, 3: {V: 9}, 4: {V: 10}, 5: {V: 11},
	})

	g3, err := MinusGap("GAP3", g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if g3.Len() != 1 {
		t.Fatalf("GAP3 has %d rows, want 1", g3.Len())
	}
	if r, _ := g3.Row(tag(2)); r.Values[0].V != 2 {
		t.Errorf("GAP3 row = %+v", g3.Rows[0])
	}

	g4, err := IntersectGap("GAP4", g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if g4.Len() != 3 || len(g4.Cols) != 2 {
		t.Fatalf("GAP4 = %d rows x %d cols, want 3 x 2", g4.Len(), len(g4.Cols))
	}
	r, ok := g4.Row(tag(3))
	if !ok || !r.Values[0].Null || r.Values[1].V != 9 {
		t.Errorf("GAP4 tag3 = %+v", r)
	}
	r, _ = g4.Row(tag(1))
	if r.Values[0].V != -11 || r.Values[1].V != -8 {
		t.Errorf("GAP4 tag1 = %+v", r)
	}
}

func TestUnionGap(t *testing.T) {
	g1 := mustGap(t, "a", map[int]GapValue{1: {V: 1}, 2: {V: 2}})
	g2 := mustGap(t, "b", map[int]GapValue{2: {V: -2}, 3: {V: 3}})
	u, err := UnionGap("u", g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 3 || len(u.Cols) != 2 {
		t.Fatalf("union = %d rows x %d cols", u.Len(), len(u.Cols))
	}
	r, _ := u.Row(tag(1))
	if r.Values[0].V != 1 || !r.Values[1].Null {
		t.Errorf("tag1 = %+v", r)
	}
	r, _ = u.Row(tag(3))
	if !r.Values[0].Null || r.Values[1].V != 3 {
		t.Errorf("tag3 = %+v", r)
	}
	// Column names disambiguated.
	if u.Cols[0] == u.Cols[1] {
		t.Errorf("columns collide: %v", u.Cols)
	}
}

func TestSelectAndProjectGap(t *testing.T) {
	g := mustGap(t, "g", map[int]GapValue{
		1: {V: -5}, 2: {V: 3}, 3: NullGap, 4: {V: -0.5},
	})
	neg, err := SelectGap("neg", g, Negative(0))
	if err != nil {
		t.Fatal(err)
	}
	if neg.Len() != 2 {
		t.Errorf("negative selection = %d rows", neg.Len())
	}
	pos, err := SelectGap("pos", g, Positive(0))
	if err != nil {
		t.Fatal(err)
	}
	if pos.Len() != 1 {
		t.Errorf("positive selection = %d rows", pos.Len())
	}
	nn, err := SelectGap("nn", g, NonNull(0))
	if err != nil {
		t.Fatal(err)
	}
	if nn.Len() != 3 {
		t.Errorf("non-null selection = %d rows", nn.Len())
	}
	big, err := SelectGap("big", g, MagnitudeAtLeast(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if big.Len() != 2 {
		t.Errorf("magnitude selection = %d rows", big.Len())
	}

	p, err := ProjectGap("p", g, "gap")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 || len(p.Cols) != 1 {
		t.Errorf("projection = %d x %d", p.Len(), len(p.Cols))
	}
	if _, err := ProjectGap("bad", g, "nope"); err == nil {
		t.Error("ProjectGap(missing): expected error")
	}
}

func TestNewGapValidation(t *testing.T) {
	if _, err := NewGap("g", nil, nil); err == nil {
		t.Error("no columns: expected error")
	}
	rows := []GapRow{{Tag: tag(1), Values: []GapValue{{V: 1}, {V: 2}}}}
	if _, err := NewGap("g", []string{"gap"}, rows); err == nil {
		t.Error("arity mismatch: expected error")
	}
}

func TestTopGaps(t *testing.T) {
	g := mustGap(t, "g", map[int]GapValue{
		1: {V: -357.24}, 2: {V: 182.94}, 3: {V: -141.95}, 4: {V: -123.02}, 5: NullGap, 6: {V: 1},
	})
	top, err := TopGaps("top3", g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if top.Len() != 3 {
		t.Fatalf("top = %d rows", top.Len())
	}
	// Ordered by |gap| descending, as the GUI's Top Gap Values list.
	if top.Rows[0].Values[0].V != -357.24 || top.Rows[1].Values[0].V != 182.94 ||
		top.Rows[2].Values[0].V != -141.95 {
		t.Errorf("top order = %v, %v, %v",
			top.Rows[0].Values[0], top.Rows[1].Values[0], top.Rows[2].Values[0])
	}
	// Row lookups still work after the display re-sort.
	if r, ok := top.Row(tag(2)); !ok || r.Values[0].V != 182.94 {
		t.Errorf("Row lookup after TopGaps = %+v, %v", r, ok)
	}
	// x beyond the non-null rows clamps.
	all, err := TopGaps("all", g, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 5 {
		t.Errorf("top-99 = %d rows, want 5 non-null", all.Len())
	}
	if _, err := TopGaps("bad", g, 7, 3); err == nil {
		t.Error("bad column: expected error")
	}
	if _, err := TopGaps("bad", g, 0, -1); err == nil {
		t.Error("negative x: expected error")
	}
}

func TestCompareAndQueries(t *testing.T) {
	// gapA: tissue 1 contrast; gapB: tissue 2 contrast.
	gapA := mustGap(t, "brainGap", map[int]GapValue{
		1: {V: 5},  // higher in cancer both (see gapB)
		2: {V: -4}, // lower in cancer both
		3: {V: 6},  // higher in A only
		4: NullGap, // null in A
		5: {V: -2}, // lower in A only (missing from B)
	})
	gapB := mustGap(t, "breastGap", map[int]GapValue{
		1: {V: 9},
		2: {V: -1},
		3: {V: -3},
		4: {V: 2},
		6: {V: -8},
	})

	inter, err := Compare("cmp", gapA, gapB, OpIntersect)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Len() != 4 || len(inter.Cols) != 2 {
		t.Fatalf("intersect = %d rows x %d cols", inter.Len(), len(inter.Cols))
	}

	q1, err := ApplyQuery("q1", inter, QHigherInABoth)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Len() != 1 || q1.Rows[0].Tag != tag(1) {
		t.Errorf("query 1 = %v", q1.Rows)
	}
	q2, err := ApplyQuery("q2", inter, QLowerInABoth)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 1 || q2.Rows[0].Tag != tag(2) {
		t.Errorf("query 2 = %v", q2.Rows)
	}
	// Query 3 is the same condition as query 2 by the gap-sign encoding.
	q3, err := ApplyQuery("q3", inter, QHigherInBBoth)
	if err != nil {
		t.Fatal(err)
	}
	if q3.Len() != q2.Len() {
		t.Errorf("query 3 = %d rows, want %d", q3.Len(), q2.Len())
	}
	q5, err := ApplyQuery("q5", inter, QNonNullBoth)
	if err != nil {
		t.Fatal(err)
	}
	if q5.Len() != 3 { // tags 1, 2, 3 (tag 4 null in A)
		t.Errorf("query 5 = %d rows", q5.Len())
	}
	q6, err := ApplyQuery("q6", inter, QHigherInAOnlyA)
	if err != nil {
		t.Fatal(err)
	}
	if q6.Len() != 1 || q6.Rows[0].Tag != tag(3) {
		t.Errorf("query 6 = %v", q6.Rows)
	}
	q10, err := ApplyQuery("q10", inter, QHigherInAOnlyB)
	if err != nil {
		t.Fatal(err)
	}
	if q10.Len() != 1 || q10.Rows[0].Tag != tag(4) {
		t.Errorf("query 10 = %v", q10.Rows)
	}
	q11, err := ApplyQuery("q11", inter, QLowerInAOnlyB)
	if err != nil {
		t.Fatal(err)
	}
	if q11.Len() != 1 || q11.Rows[0].Tag != tag(3) {
		t.Errorf("query 11 = %v", q11.Rows)
	}

	// Union keeps everything with NULL padding; query 6 picks up tag 5 too
	// (positive-in-A is false there, negative: no...). Check count shift.
	union, err := Compare("u", gapA, gapB, OpUnion)
	if err != nil {
		t.Fatal(err)
	}
	if union.Len() != 6 {
		t.Errorf("union = %d rows", union.Len())
	}
	q7u, err := ApplyQuery("q7u", union, QLowerInAOnlyA)
	if err != nil {
		t.Fatal(err)
	}
	// Lower in A of gapA but not gapB: tag5 (B missing -> not lower in B).
	found := false
	for _, r := range q7u.Rows {
		if r.Tag == tag(5) {
			found = true
		}
	}
	if !found {
		t.Errorf("query 7 on union should include tag5: %v", q7u.Rows)
	}

	// Difference: single column; queries 1-5 apply, 6-13 are errors.
	diff, err := Compare("d", gapA, gapB, OpDifference)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Len() != 1 || diff.Rows[0].Tag != tag(5) {
		t.Errorf("difference = %v", diff.Rows)
	}
	if _, err := ApplyQuery("bad", diff, QHigherInAOnlyA); err == nil {
		t.Error("query 6 on difference: expected error")
	}
	q2d, err := ApplyQuery("q2d", diff, QLowerInABoth)
	if err != nil {
		t.Fatal(err)
	}
	if q2d.Len() != 1 {
		t.Errorf("query 2 on difference = %d rows", q2d.Len())
	}
}

func TestCompareErrors(t *testing.T) {
	g1 := mustGap(t, "a", map[int]GapValue{1: {V: 1}})
	g2 := mustGap(t, "b", map[int]GapValue{1: {V: 1}})
	two, err := IntersectGap("two", g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compare("bad", two, g1, OpUnion); err == nil {
		t.Error("multi-column input: expected error")
	}
	if _, err := ApplyQuery("bad", g1, CompareQuery(0)); err == nil {
		t.Error("query 0: expected error")
	}
	if _, err := ApplyQuery("bad", g1, CompareQuery(14)); err == nil {
		t.Error("query 14: expected error")
	}
}

func TestCompareOpAndAlgorithmStrings(t *testing.T) {
	if OpUnion.String() != "union" || OpIntersect.String() != "intersect" || OpDifference.String() != "difference" {
		t.Error("CompareOp strings wrong")
	}
	if LatticeAlgorithm.String() != "lattice" || GreedyAlgorithm.String() != "greedy" {
		t.Error("Algorithm strings wrong")
	}
	if NullGap.String() != "NULL" || (GapValue{V: 1.5}).String() != "1.50" {
		t.Error("GapValue strings wrong")
	}
}

func TestReorderRows(t *testing.T) {
	g := mustGap(t, "g", map[int]GapValue{1: {V: 1}, 2: {V: 2}, 3: {V: 3}})
	if err := g.ReorderRows([]sage.TagID{tag(3), tag(1), tag(2)}); err != nil {
		t.Fatal(err)
	}
	if g.Rows[0].Tag != tag(3) || g.Rows[2].Tag != tag(2) {
		t.Errorf("order = %v", g.Rows)
	}
	// Lookups still work.
	if r, ok := g.Row(tag(1)); !ok || r.Values[0].V != 1 {
		t.Errorf("Row after reorder = %+v, %v", r, ok)
	}
	// Error paths.
	if err := g.ReorderRows([]sage.TagID{tag(1)}); err == nil {
		t.Error("short permutation: expected error")
	}
	if err := g.ReorderRows([]sage.TagID{tag(1), tag(1), tag(2)}); err == nil {
		t.Error("repeated tag: expected error")
	}
	if err := g.ReorderRows([]sage.TagID{tag(1), tag(2), tag(9)}); err == nil {
		t.Error("missing tag: expected error")
	}
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gea/internal/exec"
	"gea/internal/interval"
	"gea/internal/sage"
)

// randGap builds a random single-column GAP table over tags 0..40.
func randGap(rng *rand.Rand, name string) *Gap {
	n := rng.Intn(20)
	seen := map[sage.TagID]bool{}
	var rows []GapRow
	for i := 0; i < n; i++ {
		tg := sage.TagID(rng.Intn(40))
		if seen[tg] {
			continue
		}
		seen[tg] = true
		v := NullGap
		if rng.Float64() < 0.8 {
			v = GapValue{V: rng.NormFloat64() * 50}
		}
		rows = append(rows, GapRow{Tag: tg, Values: []GapValue{v}})
	}
	g, err := NewGap(name, []string{"gap"}, rows)
	if err != nil {
		panic(err)
	}
	return g
}

func tagSet(g *Gap) map[sage.TagID]bool {
	s := map[sage.TagID]bool{}
	for _, r := range g.Rows {
		s[r.Tag] = true
	}
	return s
}

// Gap set operations obey the set-algebra laws at the tag level.
func TestGapSetAlgebraLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randGap(rng, "a")
		b := randGap(rng, "b")

		minus, err := MinusGap("m", a, b)
		if err != nil {
			return false
		}
		inter, err := IntersectGap("i", a, b)
		if err != nil {
			return false
		}
		union, err := UnionGap("u", a, b)
		if err != nil {
			return false
		}

		sa, sb := tagSet(a), tagSet(b)
		sm, si, su := tagSet(minus), tagSet(inter), tagSet(union)

		// minus(a,b) ∩ b = ∅ and minus ⊆ a.
		for tg := range sm {
			if sb[tg] || !sa[tg] {
				return false
			}
		}
		// intersect ⊆ a and ⊆ b.
		for tg := range si {
			if !sa[tg] || !sb[tg] {
				return false
			}
		}
		// union ⊇ a and ⊇ b, and |union| = |a| + |b| - |intersect|.
		for tg := range sa {
			if !su[tg] {
				return false
			}
		}
		for tg := range sb {
			if !su[tg] {
				return false
			}
		}
		if len(su) != len(sa)+len(sb)-len(si) {
			return false
		}
		// a = minus(a,b) ∪ intersect(a,b) at the tag level.
		if len(sa) != len(sm)+len(si) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TopGaps(x) returns the x largest |gap| values: every returned value
// dominates every excluded one.
func TestTopGapsDominanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGap(rng, "g")
		x := rng.Intn(10)
		top, err := TopGaps("t", g, 0, x)
		if err != nil {
			return false
		}
		if top.Len() > x {
			return false
		}
		if x == 0 {
			return top.Len() == 0
		}
		minTop := 0.0
		inTop := map[sage.TagID]bool{}
		for i, r := range top.Rows {
			v := r.Values[0].V
			if v < 0 {
				v = -v
			}
			if i == 0 || v < minTop {
				minTop = v
			}
			inTop[r.Tag] = true
		}
		if top.Len() < x {
			// Fewer than x rows means every non-null row was returned.
			nonNull := 0
			for _, r := range g.Rows {
				if !r.Values[0].Null {
					nonNull++
				}
			}
			return top.Len() == nonNull
		}
		for _, r := range g.Rows {
			if r.Values[0].Null || inTop[r.Tag] {
				continue
			}
			v := r.Values[0].V
			if v < 0 {
				v = -v
			}
			if v > minTop {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randEnumDataset builds a random dataset for closure properties.
func randEnumDataset(rng *rand.Rand) *sage.Dataset {
	libs := 3 + rng.Intn(8)
	tags := 3 + rng.Intn(15)
	tagIDs := make([]sage.TagID, tags)
	for j := range tagIDs {
		tagIDs[j] = sage.TagID(j * 3)
	}
	c := &sage.Corpus{}
	for i := 0; i < libs; i++ {
		l := sage.NewLibrary(sage.LibraryMeta{ID: i + 1, Name: string(rune('a' + i)), Tissue: "t"})
		for _, tg := range tagIDs {
			if rng.Float64() < 0.8 {
				l.Add(tg, float64(rng.Intn(50)))
			}
		}
		c.Libraries = append(c.Libraries, l)
	}
	return sage.BuildWithTags(c, tagIDs)
}

// Populate-Aggregate closure: populate(aggregate(E), D) over the same base
// dataset always contains E's rows (every member satisfies its own cluster's
// ranges).
func TestPopulateAggregateClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randEnumDataset(rng)
		// Random non-empty row subset.
		var rows []int
		for i := 0; i < d.NumLibraries(); i++ {
			if rng.Float64() < 0.5 {
				rows = append(rows, i)
			}
		}
		if len(rows) == 0 {
			rows = []int{0}
		}
		e, err := NewEnum("e", d, rows, nil)
		if err != nil {
			return false
		}
		cols := make([]int, d.NumTags())
		for j := range cols {
			cols[j] = j
		}
		e.Cols = cols
		s, _, err := AggregateWith(exec.Background(), "s", e, AggregateOptions{})
		if err != nil {
			return false
		}
		pop, _, _, err := PopulateWith(exec.Background(), "p", s, d, nil, PopulateOptions{})
		if err != nil {
			return false
		}
		member := map[int]bool{}
		for _, r := range pop.Rows {
			member[r] = true
		}
		for _, r := range rows {
			if !member[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Aggregate invariants: for every tag, min <= mean <= max and std >= 0, and
// the range actually covers all member values.
func TestAggregateMomentInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randEnumDataset(rng)
		e := FullEnum("e", d)
		s, _, err := AggregateWith(exec.Background(), "s", e, AggregateOptions{WithMedian: true})
		if err != nil {
			return false
		}
		for _, r := range s.Rows {
			if r.Range.Min > r.Mean+1e-9 || r.Mean > r.Range.Max+1e-9 {
				return false
			}
			if r.Std < 0 {
				return false
			}
			med := r.Extra["median"]
			if med < r.Range.Min-1e-9 || med > r.Range.Max+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Selection is idempotent and commutes with projection on GAP tables.
func TestGapSelectionLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGap(rng, "g")
		neg1, err := SelectGap("n1", g, Negative(0))
		if err != nil {
			return false
		}
		neg2, err := SelectGap("n2", neg1, Negative(0))
		if err != nil {
			return false
		}
		if neg1.Len() != neg2.Len() {
			return false
		}
		// Complement partition: positives + negatives + nulls = all.
		pos, err := SelectGap("p", g, Positive(0))
		if err != nil {
			return false
		}
		nn, err := SelectGap("nn", g, NonNull(0))
		if err != nil {
			return false
		}
		return pos.Len()+neg1.Len() == nn.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Indexed and sequential populate always agree, with random index choices.
func TestPopulateIndexedAgreesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randEnumDataset(rng)
		e := FullEnum("e", d)
		sub := e.SelectRows("sub", func(m sage.LibraryMeta) bool { return rng.Float64() < 0.6 })
		if sub.Size() == 0 {
			return true
		}
		s, _, err := AggregateWith(exec.Background(), "s", sub, AggregateOptions{})
		if err != nil {
			return false
		}
		// Shrink some ranges randomly to make matching non-trivial.
		for i := range s.Rows {
			if rng.Float64() < 0.3 {
				mid := (s.Rows[i].Range.Min + s.Rows[i].Range.Max) / 2
				s.Rows[i].Range = interval.Interval{Min: s.Rows[i].Range.Min, Max: mid}
			}
		}
		var idxCols []int
		for j := 0; j < d.NumTags(); j++ {
			if rng.Float64() < 0.4 {
				idxCols = append(idxCols, j)
			}
		}
		idx, err := BuildTagIndexes(d, idxCols)
		if err != nil {
			return false
		}
		seq, _, _, err := PopulateWith(exec.Background(), "seq", s, d, nil, PopulateOptions{})
		if err != nil {
			return false
		}
		ind, _, _, err := PopulateWith(exec.Background(), "ind", s, d, idx, PopulateOptions{})
		if err != nil {
			return false
		}
		if len(seq.Rows) != len(ind.Rows) {
			return false
		}
		for i := range seq.Rows {
			if seq.Rows[i] != ind.Rows[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

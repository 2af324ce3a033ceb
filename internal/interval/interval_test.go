package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMake(t *testing.T) {
	if _, err := Make(3, 1); err == nil {
		t.Error("Make(3,1): expected error")
	}
	iv, err := Make(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Min != 1 || iv.Max != 3 {
		t.Errorf("Make(1,3) = %v", iv)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, b := range [][2]float64{{nan, 3}, {1, nan}, {nan, nan}, {-inf, nan}} {
		if _, err := Make(b[0], b[1]); err == nil {
			t.Errorf("Make(%v, %v): expected an error for a NaN bound", b[0], b[1])
		}
	}
	if iv, err := Make(-inf, inf); err != nil || iv.Min != -inf || iv.Max != inf {
		t.Errorf("Make(-Inf, +Inf) = %v, %v; infinite bounds are legal", iv, err)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(5,2) did not panic")
		}
	}()
	New(5, 2)
}

func TestString(t *testing.T) {
	if got := New(0, 20).String(); got != "[0, 20]" {
		t.Errorf("String = %q", got)
	}
}

func TestWidthContainsPoint(t *testing.T) {
	iv := New(10, 120)
	if iv.Width() != 110 {
		t.Errorf("Width = %v", iv.Width())
	}
	if !iv.Contains(10) || !iv.Contains(120) || !iv.Contains(50) {
		t.Error("Contains failed on inside points")
	}
	if iv.Contains(9.99) || iv.Contains(120.01) {
		t.Error("Contains accepted outside points")
	}
	if iv.IsPoint() {
		t.Error("IsPoint true for non-degenerate interval")
	}
	if !New(5, 5).IsPoint() {
		t.Error("IsPoint false for degenerate interval")
	}
}

func TestIntersectAndHull(t *testing.T) {
	a, b := New(0, 10), New(5, 20)
	got, ok := a.Intersect(b)
	if !ok || got != New(5, 10) {
		t.Errorf("Intersect = %v, %v", got, ok)
	}
	if _, ok := New(0, 1).Intersect(New(2, 3)); ok {
		t.Error("Intersect of disjoint intervals reported non-empty")
	}
	// Touching intervals intersect in a point.
	p, ok := New(0, 5).Intersect(New(5, 9))
	if !ok || !p.IsPoint() || p.Min != 5 {
		t.Errorf("touching Intersect = %v, %v", p, ok)
	}
	if h := a.Hull(b); h != New(0, 20) {
		t.Errorf("Hull = %v", h)
	}
}

// TestClassifyTable41 walks every row of Table 4.1 of the thesis.
func TestClassifyTable41(t *testing.T) {
	tests := []struct {
		name string
		a, b Interval
		want Relation
	}{
		{"before", New(0, 2), New(5, 9), Before},
		{"after", New(5, 9), New(0, 2), After},
		{"meets", New(0, 3), New(3, 9), Meets},
		{"met-by", New(3, 9), New(0, 3), MetBy},
		{"overlaps", New(0, 5), New(3, 9), Overlaps},
		{"overlapped-by", New(3, 9), New(0, 5), OverlappedBy},
		{"during", New(3, 5), New(0, 9), During},
		{"includes", New(0, 9), New(3, 5), Includes},
		{"starts", New(0, 4), New(0, 9), Starts},
		{"started-by", New(0, 9), New(0, 4), StartedBy},
		{"finishes", New(5, 9), New(0, 9), Finishes},
		{"finished-by", New(0, 9), New(5, 9), FinishedBy},
		{"equals", New(2, 7), New(2, 7), Equals},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Classify(tt.a, tt.b); got != tt.want {
				t.Errorf("Classify(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			if !Holds(tt.want, tt.a, tt.b) {
				t.Errorf("Holds(%v, %v, %v) = false", tt.want, tt.a, tt.b)
			}
			// The name of the test must match the printed relation.
			if tt.want.String() != tt.name {
				t.Errorf("String() = %q, want %q", tt.want.String(), tt.name)
			}
		})
	}
}

func randInterval(rng *rand.Rand) Interval {
	// Small integer endpoints make coincidences (meets, starts, equals) likely,
	// so the property tests exercise all thirteen relations.
	a := float64(rng.Intn(10))
	b := float64(rng.Intn(10))
	if a > b {
		a, b = b, a
	}
	return Interval{Min: a, Max: b}
}

// Property: exactly one basic relation holds for any pair.
func TestClassifyExactlyOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randInterval(rng), randInterval(rng)
		count := 0
		for _, r := range Relations {
			if Holds(r, a, b) {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Classify(a, b).Inverse() == Classify(b, a).
func TestClassifyInverseSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randInterval(rng), randInterval(rng)
		return Classify(a, b).Inverse() == Classify(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: AnyOverlap agrees with the basic relations: it is false exactly
// for before/after.
func TestAnyOverlapConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randInterval(rng), randInterval(rng)
		r := Classify(a, b)
		want := r != Before && r != After
		return AnyOverlap(a, b) == want && Disjoint(a, b) != want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInverseIsInvolution(t *testing.T) {
	for _, r := range Relations {
		if r.Inverse().Inverse() != r {
			t.Errorf("Inverse(Inverse(%v)) = %v", r, r.Inverse().Inverse())
		}
	}
	if Equals.Inverse() != Equals {
		t.Error("Equals must be its own inverse")
	}
}

func TestParseRelation(t *testing.T) {
	for _, r := range Relations {
		byName, err := ParseRelation(r.String())
		if err != nil || byName != r {
			t.Errorf("ParseRelation(%q) = %v, %v", r.String(), byName, err)
		}
		bySym, err := ParseRelation(r.Symbol())
		if err != nil || bySym != r {
			t.Errorf("ParseRelation(%q) = %v, %v", r.Symbol(), bySym, err)
		}
	}
	if _, err := ParseRelation("sideways"); err == nil {
		t.Error("ParseRelation(bogus): expected error")
	}
}

func TestSymbolsAreUnique(t *testing.T) {
	seen := map[string]Relation{}
	for _, r := range Relations {
		if prev, dup := seen[r.Symbol()]; dup {
			t.Errorf("symbol %q shared by %v and %v", r.Symbol(), prev, r)
		}
		seen[r.Symbol()] = r
	}
}

func TestRelationStringUnknown(t *testing.T) {
	if got := Relation(99).String(); got != "Relation(99)" {
		t.Errorf("unknown relation String = %q", got)
	}
	if got := Relation(99).Symbol(); got != "?" {
		t.Errorf("unknown relation Symbol = %q", got)
	}
}

func TestPointIntervalRelations(t *testing.T) {
	// Degenerate intervals must still classify uniquely.
	p := New(5, 5)
	if got := Classify(p, p); got != Equals {
		t.Errorf("point vs itself = %v", got)
	}
	if got := Classify(p, New(5, 9)); got != Starts {
		t.Errorf("point at start = %v", got)
	}
	if got := Classify(p, New(0, 5)); got != Finishes {
		t.Errorf("point at end = %v", got)
	}
	if got := Classify(p, New(0, 9)); got != During {
		t.Errorf("point inside = %v", got)
	}
}

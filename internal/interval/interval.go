// Package interval implements Allen's interval algebra [ALLEN83, ALLEN84]
// over closed numeric ranges [Min, Max]. The GEA uses this "range arithmetic"
// (thesis Section 4.4.1, Table 4.1) to select tags from SUMY tables whose
// expression-level ranges stand in a given relation to a query range — for
// example, every tag whose range *overlaps* [10, 700].
package interval

import (
	"fmt"
	"math"
)

// Interval is a closed range [Min, Max] of expression levels.
type Interval struct {
	Min, Max float64
}

// New returns the interval [min, max]. It panics if min > max or either
// bound is NaN; callers constructing intervals from untrusted input should
// use Make.
func New(min, max float64) Interval {
	iv, err := Make(min, max)
	if err != nil {
		panic(err)
	}
	return iv
}

// Make returns the interval [min, max], or an error if min > max or
// either bound is NaN (a NaN bound would order against nothing). Infinite
// bounds are allowed.
func Make(min, max float64) (Interval, error) {
	if math.IsNaN(min) || math.IsNaN(max) {
		return Interval{}, fmt.Errorf("interval: NaN bound in [%v, %v]", min, max)
	}
	if min > max {
		return Interval{}, fmt.Errorf("interval: min %v > max %v", min, max)
	}
	return Interval{Min: min, Max: max}, nil
}

// String renders the interval in the thesis's "[min, max]" notation.
func (a Interval) String() string { return fmt.Sprintf("[%g, %g]", a.Min, a.Max) }

// Width returns Max - Min, the span the fascicle tolerance vector is defined
// as a percentage of.
func (a Interval) Width() float64 { return a.Max - a.Min }

// Contains reports whether x lies inside the closed interval.
func (a Interval) Contains(x float64) bool { return a.Min <= x && x <= a.Max }

// IsPoint reports whether the interval is degenerate (Min == Max).
func (a Interval) IsPoint() bool { return a.Min == a.Max }

// Intersect returns the intersection of a and b and whether it is non-empty.
func (a Interval) Intersect(b Interval) (Interval, bool) {
	lo, hi := a.Min, a.Max
	if b.Min > lo {
		lo = b.Min
	}
	if b.Max < hi {
		hi = b.Max
	}
	if lo > hi {
		return Interval{}, false
	}
	return Interval{Min: lo, Max: hi}, true
}

// Hull returns the smallest interval containing both a and b.
func (a Interval) Hull(b Interval) Interval {
	lo, hi := a.Min, a.Max
	if b.Min < lo {
		lo = b.Min
	}
	if b.Max > hi {
		hi = b.Max
	}
	return Interval{Min: lo, Max: hi}
}

// Relation is one of Allen's thirteen basic interval relations (Table 4.1).
type Relation int

// The thirteen basic relations. The *Inv relations are the inverses listed in
// the right column of Table 4.1 (after, met-by, overlapped-by, includes,
// started-by, finished-by).
const (
	Before   Relation = iota // A before B: A.Max < B.Min
	After                    // A after B (inverse of Before)
	Meets                    // A meets B: A.Max == B.Min
	MetBy                    // A met-by B (inverse of Meets)
	Overlaps                 // A overlaps B: A.Min < B.Min < A.Max < B.Max
	OverlappedBy
	During   // A during B: B.Min < A.Min and A.Max < B.Max
	Includes // A includes B (inverse of During, a.k.a. contains)
	Starts   // A starts B: A.Min == B.Min and A.Max < B.Max
	StartedBy
	Finishes // A finishes B: A.Max == B.Max and B.Min < A.Min
	FinishedBy
	Equals // A equals B
)

// Relations lists all thirteen basic relations in Table 4.1 order.
var Relations = []Relation{
	Before, After, Meets, MetBy, Overlaps, OverlappedBy,
	During, Includes, Starts, StartedBy, Finishes, FinishedBy, Equals,
}

var relationNames = map[Relation]string{
	Before:       "before",
	After:        "after",
	Meets:        "meets",
	MetBy:        "met-by",
	Overlaps:     "overlaps",
	OverlappedBy: "overlapped-by",
	During:       "during",
	Includes:     "includes",
	Starts:       "starts",
	StartedBy:    "started-by",
	Finishes:     "finishes",
	FinishedBy:   "finished-by",
	Equals:       "equals",
}

// Allen's single-letter symbols from Table 4.1 ("bi" etc. for inverses).
var relationSymbols = map[Relation]string{
	Before:       "b",
	After:        "bi",
	Meets:        "m",
	MetBy:        "mi",
	Overlaps:     "o",
	OverlappedBy: "oi",
	During:       "d",
	Includes:     "di",
	Starts:       "s",
	StartedBy:    "si",
	Finishes:     "f",
	FinishedBy:   "fi",
	Equals:       "e",
}

// String returns the relation's name as printed in Table 4.1.
func (r Relation) String() string {
	if n, ok := relationNames[r]; ok {
		return n
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// Symbol returns Allen's symbol for the relation ("b", "bi", "m", ...).
func (r Relation) Symbol() string {
	if s, ok := relationSymbols[r]; ok {
		return s
	}
	return "?"
}

// Inverse returns the converse relation: if A r B then B r.Inverse() A.
func (r Relation) Inverse() Relation {
	switch r {
	case Before:
		return After
	case After:
		return Before
	case Meets:
		return MetBy
	case MetBy:
		return Meets
	case Overlaps:
		return OverlappedBy
	case OverlappedBy:
		return Overlaps
	case During:
		return Includes
	case Includes:
		return During
	case Starts:
		return StartedBy
	case StartedBy:
		return Starts
	case Finishes:
		return FinishedBy
	case FinishedBy:
		return Finishes
	default:
		return Equals
	}
}

// ParseRelation accepts either the name ("overlaps") or Allen's symbol ("o")
// and returns the relation.
func ParseRelation(s string) (Relation, error) {
	for r, n := range relationNames {
		if n == s {
			return r, nil
		}
	}
	for r, sym := range relationSymbols {
		if sym == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("interval: unknown relation %q", s)
}

// Classify returns the unique basic relation that holds between a and b.
// Exactly one of the thirteen relations holds for any pair of intervals.
// Degenerate (point) intervals are classified consistently by giving the
// endpoint-equality relations (starts/finishes and their inverses) precedence
// over meets/met-by; for proper intervals the two can never coincide.
func Classify(a, b Interval) Relation {
	switch {
	case a.Min == b.Min && a.Max == b.Max:
		return Equals
	case a.Min == b.Min: // a.Max != b.Max here
		if a.Max < b.Max {
			return Starts
		}
		return StartedBy
	case a.Max == b.Max: // a.Min != b.Min here
		if a.Min > b.Min {
			return Finishes
		}
		return FinishedBy
	case a.Max < b.Min:
		return Before
	case b.Max < a.Min:
		return After
	case a.Max == b.Min:
		return Meets
	case b.Max == a.Min:
		return MetBy
	case b.Min < a.Min && a.Max < b.Max:
		return During
	case a.Min < b.Min && b.Max < a.Max:
		return Includes
	case a.Min < b.Min: // and b.Min < a.Max < b.Max
		return Overlaps
	default:
		return OverlappedBy
	}
}

// Holds reports whether relation r holds between a and b.
func Holds(r Relation, a, b Interval) bool { return Classify(a, b) == r }

// AnyOverlap reports whether a and b share at least one point. This is the
// broad "overlaps" predicate of the GEA's range-search GUI (Figure 4.16): it
// is true for every basic relation except before/after, matching a user's
// intuitive reading rather than Allen's strict o relation.
func AnyOverlap(a, b Interval) bool { return a.Min <= b.Max && b.Min <= a.Max }

// Disjoint reports whether a and b share no point.
func Disjoint(a, b Interval) bool { return !AnyOverlap(a, b) }

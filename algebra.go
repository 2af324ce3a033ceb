package gea

import (
	"gea/internal/core"
	"gea/internal/interval"
)

// The two-world algebra (thesis Chapter 3).
type (
	// Enum is a cluster in the extensional world: an enumeration of
	// libraries over a tag set.
	Enum = core.Enum
	// Sumy is a cluster in the intensional world: per-tag range, mean and
	// standard deviation.
	Sumy = core.Sumy
	// SumyRow is one row of a Sumy table.
	SumyRow = core.SumyRow
	// Gap summarizes the difference between Sumy tables.
	Gap = core.Gap
	// GapRow is one row of a Gap table.
	GapRow = core.GapRow
	// GapValue is one gap level (possibly NULL).
	GapValue = core.GapValue
	// AggregateOptions extends the basic SUMY aggregates.
	AggregateOptions = core.AggregateOptions
	// TagIndexes backs the optimized populate() of Section 3.3.2.
	TagIndexes = core.TagIndexes
	// PopulateStats reports a populate() call's work.
	PopulateStats = core.PopulateStats
	// PopulateOptions tune the populate() evaluation.
	PopulateOptions = core.PopulateOptions
	// MineResult is one mined cluster in both worlds.
	MineResult = core.MineResult
	// Algorithm selects the fascicle miner backing Mine.
	Algorithm = core.Algorithm
	// SumyPredicate / GapPredicate drive relational selection.
	SumyPredicate = core.SumyPredicate
	GapPredicate  = core.GapPredicate
	// CompareOp is the set operation of a GAP comparison.
	CompareOp = core.CompareOp
	// CompareQuery is one of the thirteen follow-up queries (Section 4.3.3).
	CompareQuery = core.CompareQuery
	// RangeCondition drives range-arithmetic searches.
	RangeCondition = core.RangeCondition
	// RangeSearchRow / RangeCell / RangeOutcome are range-search results.
	RangeSearchRow = core.RangeSearchRow
	RangeCell      = core.RangeCell
	RangeOutcome   = core.RangeOutcome
	// FrequencyResult is one row of an expression-value search.
	FrequencyResult = core.FrequencyResult
)

// Mining algorithms.
const (
	LatticeAlgorithm = core.LatticeAlgorithm
	GreedyAlgorithm  = core.GreedyAlgorithm
)

// Comparison operations and queries.
const (
	OpUnion      = core.OpUnion
	OpIntersect  = core.OpIntersect
	OpDifference = core.OpDifference

	QHigherInABoth  = core.QHigherInABoth
	QLowerInABoth   = core.QLowerInABoth
	QHigherInBBoth  = core.QHigherInBBoth
	QLowerInBBoth   = core.QLowerInBBoth
	QNonNullBoth    = core.QNonNullBoth
	QHigherInAOnlyA = core.QHigherInAOnlyA
	QLowerInAOnlyA  = core.QLowerInAOnlyA
	QHigherInBOnlyA = core.QHigherInBOnlyA
	QLowerInBOnlyA  = core.QLowerInBOnlyA
	QHigherInAOnlyB = core.QHigherInAOnlyB
	QLowerInAOnlyB  = core.QLowerInAOnlyB
	QHigherInBOnlyB = core.QHigherInBOnlyB
	QLowerInBOnlyB  = core.QLowerInBOnlyB
)

// Range-search outcomes.
const (
	RangeSatisfied = core.RangeSatisfied
	RangeNo        = core.RangeNo
	RangeNotExist  = core.RangeNotExist
)

// NullGap is the NULL gap level (the overlap case of Figure 3.4).
var NullGap = core.NullGap

// Operators. The metered ones (Aggregate, Populate, Mine, Diff, the SUMY
// operators and RangeSearch) take the *Ctl that meters them first and
// report, beside the result, whether a budget stop truncated it: pass
// Background() for an unbounded run, or call them inside Run to bound
// one by a context and ExecLimits.
var (
	// FullEnum wraps a whole dataset as a degenerate cluster.
	FullEnum = core.FullEnum
	// NewEnum builds an Enum over explicit rows and columns.
	NewEnum = core.NewEnum
	// NewSumy builds a Sumy from rows.
	NewSumy = core.NewSumy
	// NewGap builds a Gap from rows.
	NewGap = core.NewGap
	// Aggregate converts a cluster to its intensional form.
	Aggregate = core.AggregateWith
	// Populate converts a cluster definition to its enumeration; its
	// options include the simulated row fetch of the Table 3.2
	// experiment.
	Populate = core.PopulateWith
	// BuildTagIndexes creates sorted per-tag indexes for Populate.
	BuildTagIndexes = core.BuildTagIndexes
	// Mine runs fascicle production and builds both forms of each cluster.
	Mine = core.MineWith
	// Diff produces a Gap from two Sumy tables.
	Diff = core.DiffWith
	// SelectSumy / ProjectSumy / MinusSumy / IntersectSumy / UnionSumy are
	// the intensional-world operators on SUMY tables.
	SelectSumy    = core.SelectSumyWith
	ProjectSumy   = core.ProjectSumyWith
	MinusSumy     = core.MinusSumyWith
	IntersectSumy = core.IntersectSumyWith
	UnionSumy     = core.UnionSumyWith
	// SelectGap / ProjectGap / MinusGap / IntersectGap / UnionGap are the
	// operators on GAP tables.
	SelectGap    = core.SelectGap
	ProjectGap   = core.ProjectGap
	MinusGap     = core.MinusGap
	IntersectGap = core.IntersectGap
	UnionGap     = core.UnionGap
	// TopGaps extracts the x largest-magnitude gaps.
	TopGaps = core.TopGaps
	// Compare combines two GAP tables for the thirteen queries.
	Compare = core.Compare
	// ApplyQuery runs one of the thirteen queries on a compare table.
	ApplyQuery = core.ApplyQuery
	// Gap predicates.
	GapPositive  = core.Positive
	GapNegative  = core.Negative
	GapNonNull   = core.NonNull
	GapMagnitude = core.MagnitudeAtLeast
	// Sumy range predicates.
	RangeRelation   = core.RangeRelation
	RangeAnyOverlap = core.RangeAnyOverlap
	// Searches (Section 4.4.4).
	RangeSearch     = core.RangeSearchWith
	AnyTagSearch    = core.AnyTagSearch
	StrictRelation  = core.StrictRelation
	BroadOverlap    = core.BroadOverlap
	FrequencySearch = core.FrequencySearch
	SingleTagSearch = core.SingleTagSearch
)

// Range arithmetic (Allen's interval algebra, Table 4.1).
type (
	// Interval is a closed numeric range.
	Interval = interval.Interval
	// Relation is one of Allen's thirteen basic relations.
	Relation = interval.Relation
	// RelationSet is an indefinite relationship: a set of basic relations,
	// closed under converse and composition.
	RelationSet = interval.RelationSet
)

// Allen's thirteen basic relations.
const (
	Before       = interval.Before
	After        = interval.After
	Meets        = interval.Meets
	MetBy        = interval.MetBy
	Overlaps     = interval.Overlaps
	OverlappedBy = interval.OverlappedBy
	During       = interval.During
	Includes     = interval.Includes
	Starts       = interval.Starts
	StartedBy    = interval.StartedBy
	Finishes     = interval.Finishes
	FinishedBy   = interval.FinishedBy
	Equals       = interval.Equals
)

var (
	// NewInterval returns [min, max] (panics if inverted or NaN; use
	// MakeInterval for untrusted input).
	NewInterval = interval.New
	// MakeInterval returns [min, max] or an error.
	MakeInterval = interval.Make
	// ClassifyIntervals returns the unique relation between two intervals.
	ClassifyIntervals = interval.Classify
	// HoldsRelation reports whether a relation holds between two intervals.
	HoldsRelation = interval.Holds
	// ParseRelation parses a relation name or Allen symbol.
	ParseRelation = interval.ParseRelation
	// NewRelationSet builds an indefinite relationship from basic relations.
	NewRelationSet = interval.NewRelationSet
	// ComposeRelations / ComposeRelationSets implement Allen's composition.
	ComposeRelations    = interval.Compose
	ComposeRelationSets = interval.ComposeSets
)

// Canonical relation sets.
const (
	EmptyRelationSet = interval.EmptySet
	FullRelationSet  = interval.FullSet
)

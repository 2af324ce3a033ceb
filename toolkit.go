package gea

import (
	"gea/internal/cluster"
	"gea/internal/fascicle"
	"gea/internal/genedb"
	"gea/internal/indexsel"
	"gea/internal/lineage"
	"gea/internal/relational"
	"gea/internal/system"
	"gea/internal/userdb"
	"gea/internal/xprofiler"
)

// Fascicle mining (thesis Section 2.5.1; [JMN99]).
type (
	// FascicleParams configure a mining run (k, tolerance vector, batch
	// size, minimum fascicle size).
	FascicleParams = fascicle.Params
	// Fascicle is one mined result.
	Fascicle = fascicle.Fascicle
)

// The miners, like the clusterers and XCompare below, take the *Ctl
// that meters them first; see the Operators block in algebra.go.
var (
	// MineFasciclesLattice is the exact level-wise miner (maximal results).
	MineFasciclesLattice = fascicle.LatticeWith
	// MineFasciclesGreedy is the single-pass batched heuristic.
	MineFasciclesGreedy = fascicle.GreedyWith
)

// One-step clustering baselines (thesis Sections 2.3.1-2.3.3).
type (
	// Dendrogram is a hierarchical clustering result.
	Dendrogram = cluster.Dendrogram
	// Linkage selects the agglomeration rule.
	Linkage = cluster.Linkage
	// KMeansResult holds a k-means clustering.
	KMeansResult = cluster.KMeansResult
	// SOMConfig / SOMResult drive self-organizing maps.
	SOMConfig = cluster.SOMConfig
	SOMResult = cluster.SOMResult
	// OPTICSConfig / OPTICSPoint drive OPTICS cluster ordering.
	OPTICSConfig = cluster.OPTICSConfig
	OPTICSPoint  = cluster.OPTICSPoint
	// DistanceFunc measures dissimilarity between expression vectors.
	DistanceFunc = cluster.DistanceFunc
)

// Linkage rules.
const (
	AverageLinkage  = cluster.AverageLinkage
	SingleLinkage   = cluster.SingleLinkage
	CompleteLinkage = cluster.CompleteLinkage
)

var (
	// Hierarchical is Eisen-style agglomerative clustering.
	Hierarchical = cluster.HierarchicalWith
	// KMeans is Lloyd's algorithm with k-means++ seeding.
	KMeans = cluster.KMeansWith
	// SOM trains a self-organizing map (the Golub et al. method).
	SOM = cluster.SOMWith
	// OPTICS computes the density cluster ordering (Ng et al. on SAGE).
	OPTICS = cluster.OPTICSWith
	// ExtractDBSCAN flattens an OPTICS ordering at a fixed eps.
	ExtractDBSCAN = cluster.ExtractDBSCAN
	// CorrelationDistance is 1 - Pearson, the thesis's distance function.
	CorrelationDistance = cluster.CorrelationDistance
	// EuclideanDistance is the plain L2 metric.
	EuclideanDistance = cluster.EuclideanDistance
	// RenderDendrogram / TextHeatmap / Reorder / ReachabilityPlot render
	// clustering results as text (the Eisen-style display).
	RenderDendrogram = cluster.RenderDendrogram
	TextHeatmap      = cluster.TextHeatmap
	Reorder          = cluster.Reorder
	ReachabilityPlot = cluster.ReachabilityPlot
)

// Index selection for populate() (thesis Section 3.3.2).
type (
	// RankedTag pairs a tag with its entropy score.
	RankedTag = indexsel.RankedTag
	// Table31Row is one row of Table 3.1.
	Table31Row = indexsel.Table31Row
)

var (
	// HitProbability is P(at least w of p SUMY tags are indexed | m of n
	// tags carry indexes).
	HitProbability = indexsel.HitProbability
	// IndicesRequired inverts HitProbability: the smallest m reaching a
	// confidence level. Reproduces Table 3.1.
	IndicesRequired = indexsel.IndicesRequired
	// Table31 computes the full table.
	Table31 = indexsel.Table31
	// RankByEntropy / TopEntropyTags implement the "highest entropy" index
	// heuristic; IndexAdvise combines both steps.
	RankByEntropy  = indexsel.RankByEntropy
	TopEntropyTags = indexsel.TopEntropyTags
	IndexAdvise    = indexsel.Advise
)

// DefaultConfidence is the 99.9% threshold of the thesis.
const DefaultConfidence = indexsel.DefaultConfidence

// The assembled GEA session (thesis Chapter 4).
type (
	// System is one GEA session: cleaned data, catalog, lineage, operators.
	System = system.System
	// SystemOptions configure a session.
	SystemOptions = system.Options
	// FascicleOptions mirror the calculate-fascicles window.
	FascicleOptions = system.FascicleOptions
	// CaseGroups names the three control-group SUMY tables of case study 1.
	CaseGroups = system.CaseGroups
	// ErrExists is returned by the redundancy checks.
	ErrExists = system.ErrExists
)

// NewSystem builds a session from a raw corpus (cleaning included).
var NewSystem = system.New

// Lineage (thesis Section 4.4.2).
type (
	// LineageGraph is the operation-history DAG.
	LineageGraph = lineage.Graph
	// LineageNode is one recorded table.
	LineageNode = lineage.Node
	// LineageKind classifies a node.
	LineageKind = lineage.Kind
)

// NewLineageGraph returns an empty lineage graph.
var NewLineageGraph = lineage.NewGraph

// Auxiliary gene databases (thesis Section 5.2).
type (
	// GeneDB bundles UNIGENE/SWISSPROT/PFAM/KEGG/GENBANK/OMIM/PUBMED.
	GeneDB = genedb.DB
	// GeneAnnotation is one fully resolved candidate tag.
	GeneAnnotation = genedb.Annotation
)

// BuildGeneDB synthesizes the auxiliary databases from a gene catalog.
var BuildGeneDB = genedb.Build

// Embedded relational engine (the DB2 substitute).
type (
	// RelTable is a relation instance.
	RelTable = relational.Table
	// RelSchema is an ordered column list.
	RelSchema = relational.Schema
	// RelStore is a named-table catalog with gob persistence.
	RelStore = relational.Store
	// RelValue is a typed cell.
	RelValue = relational.Value
	// RelColumn describes one attribute of a relation.
	RelColumn = relational.Column
)

var (
	// NewRelStore returns an empty store.
	NewRelStore = relational.NewStore
	// LoadRelStore reads a store saved with Store.Save.
	LoadRelStore = relational.Load
	// NewRelTable returns an empty table with the given schema.
	NewRelTable = relational.NewTable
	// RelS / RelI / RelF construct string, int and float cells.
	RelS = relational.S
	RelI = relational.I
	RelF = relational.F
	// NaturalToRotated / RotatedToNatural convert between the conceptual
	// and the physical layout of the TAGS relation (Section 4.6.1);
	// RotatedSum is the layout-adjusted per-attribute sum.
	NaturalToRotated = relational.NaturalToRotated
	RotatedToNatural = relational.RotatedToNatural
	RotatedSum       = relational.RotatedSum
)

// Relational column kinds.
const (
	RelKindString = relational.KindString
	RelKindInt    = relational.KindInt
	RelKindFloat  = relational.KindFloat
)

// User accounts and configuration (thesis Appendix III).
type (
	// UserDB stores accounts and configuration.
	UserDB = userdb.DB
	// User is one account.
	User = userdb.User
	// Role is an access level.
	Role = userdb.Role
)

// Access levels.
const (
	RoleUser  = userdb.RoleUser
	RoleAdmin = userdb.RoleAdmin
)

// NewUserDB returns a store seeded with an administrator account.
var NewUserDB = userdb.New

// xProfiler — the NCBI SAGE site's pooled differential comparator (thesis
// Section 2.3.3), implemented with the Audic-Claverie test.
type (
	// XPool is a pooled library group.
	XPool = xprofiler.Pool
	// XResult is one differentially expressed tag.
	XResult = xprofiler.Result
	// XOptions configure a comparison.
	XOptions = xprofiler.Options
)

var (
	// NewXPool pools named libraries; XPoolByState pools a tissue+state.
	NewXPool     = xprofiler.NewPool
	XPoolByState = xprofiler.PoolByState
	// XCompare runs the pooled differential test.
	XCompare = xprofiler.CompareWith
	// AudicClaverieP is the two-sided Audic-Claverie p-value for SAGE
	// counts (x, y) in pools of totals (n1, n2).
	AudicClaverieP = xprofiler.TwoSidedP
)

// CAST — the Cluster Affinity Search Technique baseline (Ben-Dor et al.).
type CASTConfig = cluster.CASTConfig

var (
	// CAST clusters rows, discovering the cluster count itself.
	CAST = cluster.CASTWith
	// CorrelationAffinity maps Pearson correlation to [0, 1].
	CorrelationAffinity = cluster.CorrelationAffinity
	// NumClusters counts distinct non-negative labels.
	NumClusters = cluster.NumClusters
)

// Session persistence.
type (
	// LoadReport lists artifacts a salvaging LoadSession had to skip;
	// inspect System.LoadReport after loading.
	LoadReport = system.LoadReport
	// LoadProblem is one skipped artifact in a LoadReport.
	LoadProblem = system.LoadProblem
)

var (
	// LoadSession restores a session saved with System.SaveSession,
	// salvaging around damaged artifacts (see the System's LoadReport).
	LoadSession = system.LoadSession
	// LoadSessionFS is LoadSession over an injectable filesystem and
	// returns the salvage report explicitly.
	LoadSessionFS = system.LoadSessionFS
)

// Package gea is the Gene Expression Analyzer: a toolkit for multi-step
// cluster analysis of gene-expression (SAGE) data, reproducing the system of
// Phan's UBC thesis "GEA: A Toolkit for Gene Expression Analysis" (2001,
// demonstrated at SIGMOD 2002).
//
// The GEA is not a clustering algorithm; it is an algebra in which clusters
// have a dual identity. In the extensional world a cluster is an Enum — an
// explicit enumeration of libraries. In the intensional world it is a Sumy —
// its definition as per-tag ranges and moments — and contrasts between
// clusters are Gap tables. Operators close over these structures:
//
//	mine       fascicle production: Dataset -> clusters (Sumy + Enum)
//	aggregate  Enum -> Sumy
//	populate   Sumy x Dataset -> Enum (optimized with entropy-chosen indexes)
//	diff       Sumy x Sumy -> Gap
//	select / project / union / intersect / minus on Sumy and Gap tables
//	top-gap extraction, range arithmetic (Allen relations), searches
//
// so the output of one operation can become the input of another — multi-step
// analysis, not a one-shot clustering.
//
// Quick start:
//
//	res, _ := gea.Generate(gea.SmallConfig())        // synthetic SAGE corpus
//	sys, _ := gea.NewSystem(res.Corpus, gea.SystemOptions{})
//	sys.CreateTissueDataset("brain")
//	sys.GenerateMetadata("brain", 10)                // tolerance vector
//	pure, _ := sys.FindPureFascicle("brain", gea.PropCancer, 3)
//	groups, _ := sys.FormSUM(pure, "brain")
//	gap, _ := sys.CreateGap("canvsnor", groups.InFascicle, groups.Opposite)
//	top, _ := sys.CalculateTopGap("canvsnor", 10)    // candidate genes
//	_, _ = gap, top
//
// The sub-systems are re-exported here: the SAGE data model and synthetic
// generator, the cleaning pipeline, the fascicle miner, the baseline
// clusterers (hierarchical, k-means, SOM, OPTICS), the index-selection
// analysis of thesis Section 3.3.2, the embedded relational engine, the
// lineage tracker, the auxiliary gene databases and the user store.
//
// Every long-running operator has one form, which takes the *Ctl that
// meters it: gea.Mine(gea.Background(), ...) runs unbounded, and wrapping
// the call in gea.Run bounds it by a context.Context and an ExecLimits
// work budget. Cancellation and deadlines are observed at cooperative
// checkpoints, an exhausted budget degrades to an explicitly flagged
// partial result (ExecTrace.Partial), and panics are recovered into
// structured *ExecError values. System methods have governed *Ctx forms
// (System.CalculateFasciclesCtx, ...) that also gate heavy operations
// through an admission queue (see execution.go and DESIGN.md's execution
// model).
package gea

import (
	"gea/internal/atomicio"
	"gea/internal/clean"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

// SAGE data model.
type (
	// TagID is a 10-base SAGE tag, 2 bits per base.
	TagID = sage.TagID
	// Library is one sparse SAGE expression profile.
	Library = sage.Library
	// LibraryMeta is a library's auxiliary data (tissue, state, source).
	LibraryMeta = sage.LibraryMeta
	// Corpus is an ordered collection of libraries.
	Corpus = sage.Corpus
	// Dataset is the dense libraries-by-tags matrix the operators run on.
	Dataset = sage.Dataset
	// NeoplasticState is cancer or normal.
	NeoplasticState = sage.NeoplasticState
	// Source is bulk tissue or cell line.
	Source = sage.Source
	// Property is a purity-check property.
	Property = sage.Property
)

// Neoplastic states, sources and purity properties.
const (
	Normal         = sage.Normal
	Cancer         = sage.Cancer
	BulkTissue     = sage.BulkTissue
	CellLine       = sage.CellLine
	PropCancer     = sage.PropCancer
	PropNormal     = sage.PropNormal
	PropBulkTissue = sage.PropBulkTissue
	PropCellLine   = sage.PropCellLine
)

// Tag helpers.
var (
	// ParseTag converts a 10-character tag string to its TagID.
	ParseTag = sage.ParseTag
	// MustParseTag is ParseTag for known-good literals.
	MustParseTag = sage.MustParseTag
)

// Dataset construction and persistence.
var (
	// BuildDataset assembles a dense Dataset from a corpus.
	BuildDataset = sage.Build
	// BuildDatasetWithTags assembles a Dataset over an explicit tag universe.
	BuildDatasetWithTags = sage.BuildWithTags
	// SaveCorpus / LoadCorpus persist a corpus as sageName.txt plus one
	// plain-text file per library, under the crash-safe generation
	// protocol of internal/atomicio (checksummed files, atomic commit).
	SaveCorpus = sage.SaveCorpus
	LoadCorpus = sage.LoadCorpus
	// LoadCorpusSalvage loads what verifies and reports damaged library
	// files instead of failing the whole corpus.
	LoadCorpusSalvage = sage.LoadCorpusSalvage
	// WriteBinary / ReadBinary are the stream codecs for the dense ".b"
	// tissue format.
	WriteBinary = sage.WriteBinary
	ReadBinary  = sage.ReadBinary
	// SaveBinaryFile / LoadBinaryFile commit a ".b" file atomically with a
	// checksum footer.
	SaveBinaryFile = sage.SaveBinaryFile
	LoadBinaryFile = sage.LoadBinaryFile
	// WriteMeta / ReadMeta are the stream codecs for ".meta"
	// tolerance-vector files.
	WriteMeta = sage.WriteMeta
	ReadMeta  = sage.ReadMeta
	// SaveMetaFile / LoadMetaFile commit a ".meta" file atomically with a
	// checksum footer.
	SaveMetaFile = sage.SaveMetaFile
	LoadMetaFile = sage.LoadMetaFile
)

// Durability layer (internal/atomicio).
type (
	// FS is the injectable filesystem every persistence path runs on;
	// OSFS is the production implementation.
	FS = atomicio.FS
	// CorpusProblem records one damaged artifact a salvaging corpus load
	// skipped.
	CorpusProblem = sage.Problem
)

// OSFS is the real-disk FS used by default.
var OSFS = atomicio.OS{}

// Checksum-framing sentinel errors, for classifying load failures with
// errors.Is.
var (
	ErrTruncated = atomicio.ErrTruncated
	ErrChecksum  = atomicio.ErrChecksum
)

// Synthetic corpus generation (the substitute for the NCBI SAGE download).
type (
	// GenConfig controls synthetic corpus generation.
	GenConfig = sagegen.Config
	// TissueSpec lays out one tissue type of the panel.
	TissueSpec = sagegen.TissueSpec
	// GenResult bundles the corpus with its ground truth.
	GenResult = sagegen.Result
	// Gene is one synthetic gene-catalog entry.
	Gene = sagegen.Gene
	// GeneCatalog maps the synthetic gene universe.
	GeneCatalog = sagegen.Catalog
)

var (
	// Generate builds a synthetic SAGE corpus.
	Generate = sagegen.Generate
	// DefaultConfig mirrors the thesis corpus (100 libraries, ~60k genes).
	DefaultConfig = sagegen.DefaultConfig
	// SmallConfig is a fast configuration for tests and examples.
	SmallConfig = sagegen.SmallConfig
)

// Marker genes planted for the figure reproductions.
const (
	GeneRibosomalL12 = sagegen.GeneRibosomalL12
	GeneAlphaTubulin = sagegen.GeneAlphaTubulin
	GeneADPProtein   = sagegen.GeneADPProtein
)

// Cleaning pipeline (thesis Section 4.2).
type (
	// CleanOptions configures pre-processing.
	CleanOptions = clean.Options
	// CleanReport summarizes what cleaning did.
	CleanReport = clean.Report
)

var (
	// Clean runs error removal and normalization on a corpus.
	Clean = clean.Clean
	// DefaultCleanOptions are the thesis defaults (tolerance 1, scale to
	// 300,000 total tags).
	DefaultCleanOptions = clean.DefaultOptions
	// ToleranceVector builds the fascicle "metadata": per-tag tolerance as a
	// percentage of the tag's width.
	ToleranceVector = clean.ToleranceVector
	// SingletonFraction reports the fraction of corpus tags that never
	// exceed count 1 (the sequencing-error candidates).
	SingletonFraction = clean.SingletonFraction
	// TopVariableTags returns the n widest-ranging tags of a dataset.
	TopVariableTags = clean.TopVariableTags
)

// NormalTotal is the common total libraries are normalized to (300,000
// mRNAs per cell).
const NormalTotal = clean.NormalTotal

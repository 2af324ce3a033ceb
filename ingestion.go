package gea

// Streaming ingestion (internal/ingest): the crash-safe append path. A
// session built with SystemOptions.Ingest rebuilds its cleaned dataset
// from the whole raw corpus as batches of new libraries arrive,
// committing each batch as a new corpus generation through the atomicio
// protocol — a crash at any write boundary rolls back to the previous
// generation, transient I/O faults are retried with backoff, and
// schema-violating submissions land in a quarantine directory with a
// salvage report.

import (
	"gea/internal/ingest"
	"gea/internal/sagegen"
	"gea/internal/system"
)

type (
	// IngestBatch is one append submission in its JSON wire form.
	IngestBatch = ingest.Batch
	// IngestBatchLibrary is one submitted library.
	IngestBatchLibrary = ingest.BatchLibrary
	// IngestStore is the durable generation-by-generation append store.
	IngestStore = ingest.Store
	// IngestReport summarizes one append: committed generation, appended
	// names, quarantined rejections, absorbed retries.
	IngestReport = ingest.Report
	// IngestRejection records one library diverted to quarantine.
	IngestRejection = ingest.Rejection
	// IngestRetryPolicy retries transient faults with exponential backoff
	// and fails fast on corruption and schema violations.
	IngestRetryPolicy = ingest.RetryPolicy
	// IngestView is one immutable corpus generation: its raw corpus,
	// cleaned dataset and cleaning report.
	IngestView = ingest.View
	// IngestSchemaError describes one invalid submission.
	IngestSchemaError = ingest.SchemaError
	// IngestClass sorts a failure into the retry taxonomy.
	IngestClass = ingest.Class
	// SystemIngestOptions enable the append path on a session
	// (SystemOptions.Ingest).
	SystemIngestOptions = system.IngestOptions
)

// Retry taxonomy classes.
const (
	IngestClassTransient = ingest.ClassTransient
	IngestClassCorrupt   = ingest.ClassCorrupt
	IngestClassSchema    = ingest.ClassSchema
)

var (
	// OpenIngestStore opens (or initializes) an append store; a plain
	// SaveCorpus directory upgrades to an append store for free.
	OpenIngestStore = ingest.Open
	// DefaultIngestRetry is the store's default transient-fault policy.
	DefaultIngestRetry = ingest.DefaultRetry
	// ClassifyIngestError maps an error onto the retry taxonomy.
	ClassifyIngestError = ingest.Classify
	// EncodeIngestBatch / DecodeIngestBatch are the JSON wire codecs the
	// POST /ingest endpoint and the gea ingest command speak.
	EncodeIngestBatch = ingest.EncodeBatch
	DecodeIngestBatch = ingest.DecodeBatch
	// IngestBatchFromLibraries converts generator output to the wire form.
	IngestBatchFromLibraries = ingest.BatchFromLibraries
	// ScreenIngestBatch validates a batch against existing library names.
	ScreenIngestBatch = ingest.Screen
	// EmitBatches yields the same planted-signature synthetic corpus as
	// Generate, split into n append batches for streaming-ingestion runs.
	EmitBatches = sagegen.EmitBatches
)

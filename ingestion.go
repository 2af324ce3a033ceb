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
	// IngestReport summarizes one append: committed generation, appended
	// names, quarantined rejections, absorbed retries.
	IngestReport = ingest.Report
	// IngestSchemaError describes one invalid submission.
	IngestSchemaError = ingest.SchemaError
	// SystemIngestOptions enable the append path on a session
	// (SystemOptions.Ingest).
	SystemIngestOptions = system.IngestOptions
)

var (
	// OpenIngestStore opens (or initializes) an append store; a plain
	// SaveCorpus directory upgrades to an append store for free.
	OpenIngestStore = ingest.Open
	// DefaultIngestRetry is the store's default transient-fault policy.
	DefaultIngestRetry = ingest.DefaultRetry
	// EncodeIngestBatch / DecodeIngestBatch are the JSON wire codecs the
	// POST /ingest endpoint and the gea ingest command speak.
	EncodeIngestBatch = ingest.EncodeBatch
	DecodeIngestBatch = ingest.DecodeBatch
	// IngestBatchFromLibraries converts generator output to the wire form.
	IngestBatchFromLibraries = ingest.BatchFromLibraries
	// EmitBatches yields the same planted-signature synthetic corpus as
	// Generate, split into n append batches for streaming-ingestion runs.
	EmitBatches = sagegen.EmitBatches
)

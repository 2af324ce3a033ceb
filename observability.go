package gea

import (
	"gea/internal/obs"
)

// Observability (internal/obs). Install an ObsCollector on the context
// passed to any *Ctx operator and every governed run records a span
// tree — operator name, input shape, units charged, checkpoints,
// worker count, outcome, wall time — plus counters, gauges and bounded
// histograms in the collector's metrics registry. With no collector
// installed the instrumentation is a nil no-op; see OBSERVABILITY.md.
type (
	// ObsCollector receives completed root span records and owns the
	// metrics registry they feed.
	ObsCollector = obs.Collector
	// ObsRecord is one completed operator span: a node in the run tree
	// that LastRoot/Roots return and lineage nodes link to.
	ObsRecord = obs.Record
	// ObsSnapshot is a deterministic (name-sorted) point-in-time copy
	// of a registry, stable enough to golden in tests.
	ObsSnapshot = obs.Snapshot
)

var (
	// NewObsCollector builds a collector with a fresh registry.
	NewObsCollector = obs.NewCollector
	// WithObsCollector installs a collector on a context; every *Ctx
	// operator run under it records spans and metrics.
	WithObsCollector = obs.WithCollector
)

// ObsOutcomeBudget is the outcome of a span that a work budget stopped,
// for matching against ObsRecord.Outcome.
const ObsOutcomeBudget = obs.OutcomeBudget

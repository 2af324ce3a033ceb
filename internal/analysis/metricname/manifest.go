package metricname

// Manifest is the checked-in catalogue of metric names the obs
// Registry may be asked for. It is the machine-readable twin of the
// metric tables in OBSERVABILITY.md: the analyzer pins code ⊆ manifest,
// and TestManifestMatchesDocs pins manifest ⊆ docs, so neither can
// drift from the other silently. A trailing ".*" entry is a wildcard
// covering a dynamically-built family; dynamic names must start with a
// constant prefix that a wildcard covers.
//
// Adding a metric is therefore a three-line change: the registration
// site, an entry here, and a row in OBSERVABILITY.md — and forgetting
// any one of the three fails geacheck or the tests.
var Manifest = []string{
	// exec substrate (internal/obs/metrics.go CheckpointHook)
	"exec.checkpoints",

	// per-operator family, built as "ops." + span op name + suffix
	// (internal/obs/obs.go Collector.finish)
	"ops.*",

	// span lifecycle (internal/obs/obs.go)
	"spans.active",
	"spans.completed",
	"spans.roots",

	// admission gate (internal/admission/admission.go)
	"admission.active",
	"admission.queue_depth",
	"admission.state",
	"admission.admitted",
	"admission.rejected_overload",
	"admission.timed_out",
	"admission.canceled",
	"admission.shutdown_kicked",
	"admission.transitions",
	"admission.wait_s",

	// ingestion pipeline (internal/system/ingest.go, system.go)
	"ingest.generation",
	"ingest.appends",
	"ingest.libraries",
	"ingest.quarantined",
	"ingest.retries",
	"ingest.apply_s",
	"ingest.commit_s",

	// generation-keyed result cache (internal/rescache/cache.go)
	"cache.hits",
	"cache.misses",
	"cache.singleflight_shared",
	"cache.evicted",
	"cache.swept",
	"cache.uncacheable_partial",
	"cache.entries",
	"cache.bytes",

	// per-tenant admission governor (internal/admission/tenant.go)
	"tenant.charged_units",
	"tenant.throttled",
	"tenant.known",

	// session manager (internal/session/session.go)
	"session.created",
	"session.expired",
	"session.closed",
	"session.runs",
	"session.active",
}

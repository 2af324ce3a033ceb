package gea

// Multi-tenant serving (internal/session, internal/rescache, and the
// tenant half of internal/admission). A SessionManager fronts a System
// for HTTP serving: named sessions scoped to tenants run read-only
// algebra operators by name through a generation-keyed result cache —
// identical (corpus generation, operator, params) requests are served
// from cache and single-flighted while in flight, and an ingest append
// makes every prior generation's entries unreachable by construction.
// Tenant work-budget envelopes shape a heavy tenant's requests down
// before the fleet degrades. Enable both through
// SystemOptions.ResultCache and SystemOptions.TenantPolicy.

import (
	"gea/internal/admission"
	"gea/internal/rescache"
	"gea/internal/session"
	"gea/internal/system"
)

type (
	// ResultCacheOptions configures the generation-keyed result cache
	// (SystemOptions.ResultCache); the zero value selects the defaults.
	ResultCacheOptions = rescache.Options
	// ResultCacheStats snapshots the cache for /healthz and tests.
	ResultCacheStats = rescache.Stats

	// TenantPolicy enables per-tenant work-budget envelopes
	// (SystemOptions.TenantPolicy).
	TenantPolicy = admission.TenantPolicy
	// TenantsStats snapshots every tenant's envelope debt.
	TenantsStats = admission.TenantsStats

	// PureQuery is the pure-fascicle search as a cached read-only
	// query over one corpus generation (System.CachedQueryCtx), the
	// form GET /mine runs.
	PureQuery = system.PureQuery

	// SessionManager owns the serving session table over a System.
	SessionManager = session.Manager
	// SessionOptions configures a SessionManager.
	SessionOptions = session.Options
	// SessionInfo is a session snapshot, JSON-ready.
	SessionInfo = session.Info
	// SessionRequest is one operator invocation against a session.
	SessionRequest = session.Request
	// SessionResponse reports one session run with its accounting.
	SessionResponse = session.Response
	// SessionLineageNode is one recorded run of a session.
	SessionLineageNode = session.LineageNode
	// SessionParamError is a typed caller-fault session request (400).
	SessionParamError = session.ParamError
	// ErrSessionExists reports a double create (409), for errors.As.
	ErrSessionExists = session.ErrSessionExists
)

var (
	// NewSessionManager builds a session manager over a System.
	NewSessionManager = session.NewManager
	// ErrSessionUnknown marks reads of never-created session IDs (404),
	// for errors.Is.
	ErrSessionUnknown = session.ErrSessionUnknown
	// ErrSessionExpired marks reads of expired or closed session IDs
	// (410), for errors.Is.
	ErrSessionExpired = session.ErrSessionExpired
)

// Serving defaults, re-exported for flag registration.
const (
	DefaultSessionExpiry   = session.DefaultExpiry
	DefaultMaxSessions     = session.DefaultMaxSessions
	DefaultCacheMaxEntries = rescache.DefaultMaxEntries
	DefaultCacheMaxBytes   = rescache.DefaultMaxBytes
	DefaultTenantWindow    = admission.DefaultTenantWindow
)

package admission

import (
	"sort"
	"sync"
	"time"

	"gea/internal/exec"
	"gea/internal/obs"
)

// DefaultTenantWindow is the decay horizon for a tenant's work debt: an
// idle tenant sheds one full envelope of debt per window.
const DefaultTenantWindow = 10 * time.Second

// TenantPolicy configures a Tenants governor; the zero value of every
// field selects its default.
type TenantPolicy struct {
	// Envelope is the work-budget envelope per tenant, in exec units
	// per Window. A tenant whose outstanding debt reaches the envelope
	// is shaped down until the debt decays. Zero disables tenant
	// shaping entirely (NewTenants returns nil).
	Envelope int64
	// Window is the decay horizon for debt; zero means
	// DefaultTenantWindow.
	Window time.Duration
	// Metrics optionally records the tenant.* series; nil disables
	// instrumentation.
	Metrics *obs.Registry
}

// tenantState is one tenant's leaky bucket: debt is the unexpired work
// charged against the envelope, decaying at Envelope per Window.
type tenantState struct {
	debt    float64
	lastAt  time.Time
	charged int64
}

// Tenants is the per-tenant admission governor layered on top of the
// shared Queue: the queue protects the process, the governor makes one
// heavy tenant degrade itself before it degrades the fleet. Each
// tenant carries a leaky-bucket work debt; while the debt is at or
// above the envelope, that tenant's requests are shaped exactly like
// queue-wide degradation — explicit budgets scaled to a quarter,
// unlimited budgets capped at the envelope — so its operations finish
// early with flagged partials while everyone else runs at full budget.
//
// A nil *Tenants is a valid no-op governor: every method is
// nil-receiver safe, so callers never branch on whether tenant shaping
// is configured.
type Tenants struct {
	envelope int64
	window   time.Duration
	now      func() time.Time

	charge, throttled *obs.Counter
	known             *obs.Gauge

	mu sync.Mutex
	by map[string]*tenantState
}

// NewTenants builds a governor from pol; a zero Envelope returns nil —
// the valid "no tenant shaping" governor.
func NewTenants(pol TenantPolicy) *Tenants {
	if pol.Envelope <= 0 {
		return nil
	}
	if pol.Window <= 0 {
		pol.Window = DefaultTenantWindow
	}
	r := pol.Metrics
	return &Tenants{
		envelope:  pol.Envelope,
		window:    pol.Window,
		now:       time.Now,
		charge:    r.Counter("tenant.charged_units"),
		throttled: r.Counter("tenant.throttled"),
		known:     r.Gauge("tenant.known"),
		by:        map[string]*tenantState{},
	}
}

// stateLocked returns tenant's bucket with its debt decayed to now.
func (t *Tenants) stateLocked(tenant string, now time.Time) *tenantState {
	ts, ok := t.by[tenant]
	if !ok {
		ts = &tenantState{lastAt: now}
		t.by[tenant] = ts
		t.known.Set(int64(len(t.by)))
		return ts
	}
	if dt := now.Sub(ts.lastAt); dt > 0 {
		ts.debt -= float64(t.envelope) * (float64(dt) / float64(t.window))
		if ts.debt < 0 {
			ts.debt = 0
		}
	}
	ts.lastAt = now
	return ts
}

// Charge records units of completed work against tenant's envelope.
// The empty tenant is the anonymous fleet and is never shaped, so its
// work is not tracked.
func (t *Tenants) Charge(tenant string, units int64) {
	if t == nil || tenant == "" || units <= 0 {
		return
	}
	t.mu.Lock()
	ts := t.stateLocked(tenant, t.now())
	ts.debt += float64(units)
	ts.charged += units
	t.mu.Unlock()
	t.charge.Add(units)
}

// Shape applies tenant-level shaping to a request's limits and reports
// whether the tenant was throttled. Limits pass through untouched for
// a nil governor, the anonymous tenant, or a tenant under its
// envelope.
func (t *Tenants) Shape(tenant string, lim exec.Limits) (exec.Limits, bool) {
	if t == nil || tenant == "" {
		return lim, false
	}
	t.mu.Lock()
	ts := t.stateLocked(tenant, t.now())
	over := ts.debt >= float64(t.envelope)
	t.mu.Unlock()
	if !over {
		return lim, false
	}
	t.throttled.Add(1)
	if lim.Budget > 0 {
		lim.Budget = max(1, int64(float64(lim.Budget)*degradeFactor))
	} else {
		lim.Budget = t.envelope
	}
	return lim, true
}

// TenantStat is one tenant's snapshot inside TenantsStats.
type TenantStat struct {
	Tenant string `json:"tenant"`
	// Debt is the unexpired work charged against the envelope, in
	// exec units.
	Debt int64 `json:"debt"`
	// Charged is the lifetime units this tenant has been charged.
	Charged int64 `json:"charged"`
	// Throttled reports whether the tenant is currently shaped down.
	Throttled bool `json:"throttled"`
}

// TenantsStats is a point-in-time snapshot of the governor, JSON-ready
// for /healthz.
type TenantsStats struct {
	Envelope int64        `json:"envelope"`
	Window   string       `json:"window"`
	Tenants  []TenantStat `json:"tenants,omitempty"`
}

// Stats snapshots every known tenant, sorted by name; a nil governor
// reports the zero value.
func (t *Tenants) Stats() TenantsStats {
	if t == nil {
		return TenantsStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	s := TenantsStats{Envelope: t.envelope, Window: t.window.String()}
	for name := range t.by {
		ts := t.stateLocked(name, now)
		s.Tenants = append(s.Tenants, TenantStat{
			Tenant:    name,
			Debt:      int64(ts.debt),
			Charged:   ts.charged,
			Throttled: ts.debt >= float64(t.envelope),
		})
	}
	sort.Slice(s.Tenants, func(i, j int) bool { return s.Tenants[i].Tenant < s.Tenants[j].Tenant })
	return s
}

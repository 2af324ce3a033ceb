package system

import (
	"context"

	"gea/internal/admission"
	"gea/internal/exec"
	"gea/internal/lineage"
	"gea/internal/obs"
	"gea/internal/rescache"
	"gea/internal/sage"
)

// QueryResult is the outcome of a CachedQueryCtx call: the operator
// value with the accounting that keeps cached and computed responses
// reconcilable — the generation the result describes, the exec units
// the producing run charged (reported identically on hits), and where
// the result came from.
type QueryResult struct {
	// Value is the operator result; on a cache hit it is the very
	// object the original compute returned, so it is
	// reflect.DeepEqual-identical to a fresh computation at the same
	// generation.
	Value any
	// Generation is the corpus generation the result was computed
	// against.
	Generation uint64
	// Units is the exec work the producing run charged; a hit reports
	// the original compute's units so span accounting reconciles.
	Units int64
	// Partial marks a budget-stopped result; partials are never cached.
	Partial bool
	// Source reports computed / hit / shared (single-flight join).
	Source rescache.Source
	// State is the admission state that shaped this request's limits.
	State admission.State
	// Throttled reports whether the tenant's envelope shaped the
	// limits down.
	Throttled bool
	// Trace is this call's own execution trace: populated when this
	// call ran the compute, zero for hits and shared joins (their work
	// is accounted by Units and Record instead).
	Trace exec.Trace
	// Record is the producing run's span record when a collector was
	// installed — served on hits too, for trace reconciliation.
	Record *obs.Record
}

// Snapshot is what a cached query's compute reads: one generation's
// immutable dataset, and through Shared the result cache at that same
// generation.
type Snapshot struct {
	Data       *sage.Dataset
	Generation uint64

	ctx   context.Context
	cache *rescache.Cache
	// reused sums the units Shared charged for sub-results this run did
	// not compute; the tenant is not charged for them.
	reused *int64
}

// SubCompute computes one shared sub-result on the caller's Ctl: the
// value, its approximate byte size and whether it was budget-stopped.
type SubCompute func(c *exec.Ctl) (value any, bytes int64, partial bool, err error)

// Shared returns the (op, params) sub-result at the snapshot's
// generation, through the result cache under the key an explicit
// request for it uses, so each sub-result is computed once per
// generation and a composite operator pays only for its own step. The
// lookup calls the cache directly and never takes an admission slot.
//
// On a miss the caller leads the flight and computes on c, exactly as
// it would without the cache. A stored or shared result is reused only
// when c can pay its recorded units without stopping; they are then
// charged to c inside a root span of their own, so replies report the
// same units as a cold run and span trees still account for them. A
// result c cannot afford, or a budget-stopped one joined from another
// flight, is recomputed on c instead, so a budget-stopped composite is
// identical to a cold one.
func (sn Snapshot) Shared(c *exec.Ctl, op string, params any, compute SubCompute) (any, bool, error) {
	own := func() (any, bool, error) {
		v, _, partial, err := compute(c)
		return v, partial, err
	}
	if sn.cache == nil {
		return own()
	}
	key, err := rescache.Canonical(sn.Generation, op, params)
	if err != nil {
		return own()
	}
	res, src, err := sn.cache.Do(sn.ctx, key, sn.Generation, func() (rescache.Computed, error) {
		before := c.Units()
		v, bytes, partial, err := compute(c)
		if err != nil {
			return rescache.Computed{}, err
		}
		return rescache.Computed{Value: v, Bytes: bytes, Units: c.Units() - before, Partial: partial, Record: c.RunRecord()}, nil
	})
	if err != nil || src == rescache.SourceComputed {
		return res.Value, res.Partial, err
	}
	if res.Partial || !c.Affords(res.Units) {
		return own()
	}
	if err := chargeReuse(c, op, res.Units); err != nil {
		return nil, false, err
	}
	*sn.reused += res.Units
	return res.Value, false, nil
}

// chargeReuse charges a reused sub-result's recorded units to c inside
// its own root span.
func chargeReuse(c *exec.Ctl, op string, units int64) (err error) {
	sp := c.StartSpan("system.Reuse")
	sp.SetInput("%s: %d units", op, units)
	defer c.EndSpan(sp, nil, &err)
	return c.Point(units)
}

// CachedQueryCtx runs one read-only operator over the session's root
// corpus through the result cache: the request takes an admission
// slot, its limits are shaped by the queue-wide state and then by the
// tenant's envelope, the (generation, op, params) key is canonicalized,
// and identical in-flight requests single-flight onto one compute,
// which runs under exec.Run: a panic in it becomes an *exec.ExecError
// naming op, for this caller and any followers that joined it.
// compute receives the metered Ctl and an immutable snapshot; it must
// derive everything from those two (never from the live session
// registries) and return the value, its approximate byte size and
// whether it was budget-stopped. Budget-stopped partials are returned
// but never cached. A canonicalization error (non-data params) is not
// fatal: the query simply runs uncached. The tenant is charged only the
// units this call computed, also when the compute fails, and not those
// of sub-results it reused.
func (s *System) CachedQueryCtx(ctx context.Context, tenant, op string, params any, lim exec.Limits, compute func(c *exec.Ctl, snap Snapshot) (value any, bytes int64, partial bool, err error)) (QueryResult, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return QueryResult{}, err
	}
	defer release()

	lim, state := s.ShapeLimits(lim)
	lim, throttled := s.tenants.Shape(tenant, lim)

	// One atomic snapshot of (data, generation): the key's generation
	// always matches the corpus the compute reads, even while an append
	// commits the next generation.
	s.mu.Lock()
	snap := Snapshot{Data: s.Data, Generation: s.generation, ctx: ctx, cache: s.rescache, reused: new(int64)}
	s.mu.Unlock()
	gen := snap.Generation

	var trace exec.Trace
	run := func() (res rescache.Computed, err error) {
		res, trace, err = exec.Run(ctx, lim, op, "", func(c *exec.Ctl) (rescache.Computed, bool, error) {
			value, bytes, partial, err := compute(c, snap)
			return rescache.Computed{
				Value:   value,
				Bytes:   bytes,
				Units:   c.Units(),
				Partial: partial,
				Record:  c.RunRecord(),
			}, partial, err
		})
		return res, err
	}

	var res rescache.Computed
	src := rescache.SourceComputed
	if s.rescache != nil {
		if key, kerr := rescache.Canonical(gen, op, params); kerr == nil {
			res, src, err = s.rescache.Do(ctx, key, gen, run)
		} else {
			res, err = run()
		}
	} else {
		res, err = run()
	}
	out := QueryResult{
		Generation: gen,
		State:      state,
		Throttled:  throttled,
		Source:     src,
		Trace:      trace,
	}
	if src == rescache.SourceComputed {
		// Only the caller that actually burned the units pays for them,
		// whether its compute finished or failed (a budget-stopped
		// search is an error); hits, shared joins and reused
		// sub-results ride for free by design.
		s.tenants.Charge(tenant, trace.Units-*snap.reused)
	}
	if err != nil {
		return out, err
	}
	out.Value = res.Value
	out.Units = res.Units
	out.Partial = res.Partial
	out.Record = res.Record
	return out, nil
}

// TenantStats snapshots the tenant governor; the zero value when
// tenant shaping is disabled.
func (s *System) TenantStats() admission.TenantsStats {
	return s.tenants.Stats()
}

// ResultCacheStats snapshots the result cache; the zero value when
// caching is disabled.
func (s *System) ResultCacheStats() rescache.Stats {
	if s.rescache == nil {
		return rescache.Stats{}
	}
	return s.rescache.Stats()
}

// ResultCacheEnabled reports whether the session was built with a
// result cache.
func (s *System) ResultCacheEnabled() bool { return s.rescache != nil }

// RecordQueryRun registers a lineage node for a session-run query and
// attaches the producing run's record. Re-running the same node name
// (a cached repeat of the same session op) only appends the record, so
// provenance accumulates rather than erroring. Inputs default to the
// root dataset.
func (s *System) RecordQueryRun(name string, kind lineage.Kind, op string, params map[string]string, rec *obs.Record, inputs ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(inputs) == 0 {
		inputs = []string{RootDataset}
	}
	if !s.Lineage.Has(name) {
		if _, err := s.Lineage.Record(name, kind, op, params, inputs...); err != nil {
			return err
		}
		s.noteBornLocked(name, s.generation)
	}
	return s.Lineage.AttachRun(name, rec)
}

package system

import (
	"context"
	"fmt"
	"slices"
	"time"

	"gea/internal/exec"
	"gea/internal/ingest"
	"gea/internal/lineage"
	"gea/internal/obs"
	"gea/internal/sage"
)

// IngestOptions enables the streaming append path (Options.Ingest).
type IngestOptions struct {
	// Store is the durable append store the session commits batches
	// through. Nil is allowed: the session then keeps its generations
	// purely in memory (useful in tests and for read-only replicas), and
	// IngestAppendCtx applies batches without a durable commit.
	Store *ingest.Store
	// Metrics optionally records the ingest.* series; nil disables
	// instrumentation.
	Metrics *obs.Registry
}

// Generation returns the corpus generation the session currently serves:
// 0 when ingestion is disabled, 1 for the generation New built, +1 per
// committed append. Operators that snapshot the dataset under the same
// lock see a consistent generation even while appends land.
func (s *System) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// IngestView snapshots the current view and its generation token. The
// view is immutable — the caller can read it lock-free for as long as it
// keeps the pointer, even across concurrent appends. Nil when ingestion
// is disabled.
func (s *System) IngestView() (*ingest.View, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view, s.generation
}

// IngestAppend screens, quarantines, applies and commits one batch; see
// IngestAppendCtx for the governed variant.
func (s *System) IngestAppend(batch ingest.Batch) (*ingest.Report, error) {
	rep, err := s.ingestAppend(s.background(), batch)
	return rep, err
}

// IngestAppendCtx appends a batch of new libraries to the live corpus
// under execution governance. The batch is screened against the current
// name universe; invalid submissions are quarantined with a report and
// never block the valid remainder. The next view is built by cleaning
// the old raw corpus followed by the valid libraries (ingest.Build), the
// batch is durably committed as a new generation through the append
// store, and only then is the view swapped in for readers — a crash or
// commit failure at any point leaves both the directory and the session
// on the previous generation. Appends serialize among themselves but
// only block readers for the pointer swap.
func (s *System) IngestAppendCtx(ctx context.Context, batch ingest.Batch, lim exec.Limits) (*ingest.Report, exec.Trace, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, exec.Trace{}, err
	}
	defer release()
	c := exec.New(ctx, s.limits(lim))
	rep, err := s.ingestAppend(c, batch)
	return rep, c.Snapshot(false), err
}

// ingestAppend is the metered implementation. Budget exhaustion is an
// error, never a partially applied batch: the view swap happens only
// after both the in-memory build and the durable commit succeed.
func (s *System) ingestAppend(c *exec.Ctl, batch ingest.Batch) (_ *ingest.Report, err error) {
	var partial bool
	sp := c.StartSpan("system.IngestAppend")
	sp.SetInput("%d submitted libraries", len(batch.Libraries))
	defer c.EndSpan(sp, &partial, &err)

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	oldView := s.view // only ingestMu holders write s.view, so this read is stable
	if oldView == nil {
		return nil, fmt.Errorf("system: ingestion not enabled (Options.Ingest is nil)")
	}

	// Screen against the durable name universe when a store is attached
	// (it also reserves the names of damaged-but-indexed libraries);
	// otherwise against the in-memory corpus.
	var retriesBefore int
	names := map[string]bool{}
	if s.ingestStore != nil {
		retriesBefore = s.ingestStore.Retries
		names = s.ingestStore.Names()
	} else {
		//lint:gea ctlcharge -- O(libraries) name-set bookkeeping ahead of the metered apply
		for _, l := range oldView.Raw.Libraries {
			names[l.Meta.Name] = true
		}
	}
	valid, rejected := ingest.Screen(batch, names)
	rep := &ingest.Report{}
	//lint:gea ctlcharge -- O(rejections) report bookkeeping
	for _, r := range rejected {
		rep.Rejected = append(rep.Rejected, ingest.RejectionReport{Name: r.Name, Error: r.Err.Error()})
	}
	// Quarantine before the commit: if the process dies mid-append the
	// rejects are already on disk for the operator.
	if len(rejected) > 0 && s.ingestStore != nil {
		qdir, err := s.ingestStore.Quarantine(batch, rejected)
		if err != nil {
			return nil, err
		}
		rep.QuarantineDir = qdir
	}
	if m := s.ingestMetrics; m != nil {
		m.Counter("ingest.quarantined").Add(int64(len(rejected)))
	}
	if len(valid) == 0 {
		if s.ingestStore != nil {
			rep.Retries = s.ingestStore.Retries - retriesBefore
		}
		return rep, nil
	}

	// Build in memory first — it is pure and cheap to discard, while a
	// committed generation would be visible to a crash-recovery open.
	applyStart := time.Now()
	raw := &sage.Corpus{Libraries: slices.Concat(oldView.Raw.Libraries, valid)}
	var newView *ingest.View
	//lint:gea locksafe -- ingestMu is the append serialization lock, not a registry lock: readers never take it (they snapshot under s.mu, which is NOT held here), so the guarded build blocks only other appends
	err = exec.Guard("system.IngestAppend", "apply", func() error {
		var err error
		newView, err = ingest.Build(c, raw, s.cleanOpts)
		return err
	})
	if err != nil {
		return nil, err
	}
	applyDur := time.Since(applyStart)

	// The durable commit point. On failure the new view is discarded, so
	// memory and disk stay on the same (previous) generation and the
	// whole append can be retried wholesale.
	var commitDur time.Duration
	if s.ingestStore != nil {
		commitStart := time.Now()
		gen, err := s.ingestStore.Append(valid)
		if err != nil {
			return nil, err
		}
		commitDur = time.Since(commitStart)
		rep.Gen = gen
		rep.Retries = s.ingestStore.Retries - retriesBefore
	}
	//lint:gea ctlcharge -- O(batch) report bookkeeping after the metered apply
	for _, l := range valid {
		rep.Appended = append(rep.Appended, l.Meta.Name)
	}

	// Swap the generation in for readers. Everything under mu is pointer
	// swaps and catalog/lineage bookkeeping — the governed compute above
	// ran unlocked.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.view = newView
	s.generation++
	gen := s.generation
	if s.rescache != nil {
		// Entries keyed below the new generation are unreachable by
		// construction; sweep them now so memory follows reachability.
		s.rescache.EvictBelow(gen)
	}
	s.Data = newView.Data
	s.datasets[RootDataset] = newView.Data
	s.CleanReport = newView.Report
	if err := reloadLibrariesRelation(s.Store, newView.Data); err != nil {
		return nil, err
	}
	node := fmt.Sprintf("%s@gen%d", RootDataset, gen)
	params := map[string]string{
		"generation": fmt.Sprint(gen),
		"appended":   fmt.Sprint(len(valid)),
		"libraries":  fmt.Sprint(newView.Data.NumLibraries()),
		"tags":       fmt.Sprint(newView.Data.NumTags()),
	}
	if rep.Gen != "" {
		params["gen"] = rep.Gen
	}
	if _, err := s.Lineage.Record(node, lineage.KindDataset, "ingest-append", params, RootDataset); err != nil {
		return nil, err
	}

	if m := s.ingestMetrics; m != nil {
		m.Counter("ingest.appends").Add(1)
		m.Counter("ingest.libraries").Add(int64(len(valid)))
		m.Counter("ingest.retries").Add(int64(rep.Retries))
		m.Gauge("ingest.generation").Set(int64(gen))
		m.Histogram("ingest.apply_s", obs.LatencyBounds).Observe(applyDur.Seconds())
		if s.ingestStore != nil {
			m.Histogram("ingest.commit_s", obs.LatencyBounds).Observe(commitDur.Seconds())
		}
	}
	return rep, nil
}

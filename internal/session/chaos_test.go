package session

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"gea/internal/admission"
	"gea/internal/atomicio"
	"gea/internal/ingest"
	"gea/internal/obs"
	"gea/internal/rescache"
	"gea/internal/sagegen"
	"gea/internal/system"
)

// newChaosSystem builds an ingest-enabled, cached, tenant-governed
// system over an empty append store, plus the batches to stream in.
func newChaosSystem(t *testing.T) (*system.System, []ingest.Batch, *obs.Registry) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	retry := ingest.DefaultRetry()
	retry.Sleep = func(time.Duration) {}
	st, corpus, _, err := ingest.Open(atomicio.OS{}, dir, retry)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sys, err := system.New(corpus, system.Options{
		User:        "chaos",
		Ingest:      &system.IngestOptions{Store: st, Metrics: reg},
		ResultCache: &rescache.Options{Metrics: reg},
		TenantPolicy: &admission.TenantPolicy{
			Envelope: 1 << 40, // throttling correctness is pinned in admission; chaos pins cache/generation safety
			Metrics:  reg,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	libs, _, err := sagegen.EmitBatches(sagegen.SmallConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([]ingest.Batch, len(libs))
	for i, ls := range libs {
		batches[i] = ingest.BatchFromLibraries(ls)
	}
	return sys, batches, reg
}

// TestChaosConcurrentTenantsDuringAppends is the chaos layer: several
// tenants fire identical and distinct requests while ingestion commits
// new generations underneath them. Run under -race. It pins:
//
//   - no cross-generation serving: every response's generation lies in
//     the [before, after] window of its own request, and all responses
//     for the same (params, generation) are DeepEqual-identical;
//   - accounting closes: hits + misses + shared == total lookups — one
//     per request plus the shared aggregate lookup of each computed
//     select — and misses never exceed the distinct (params,
//     generation) keys plus one aggregate key per generation;
//   - no leaks after the storm: zero in-flight computes, entries within
//     bounds, superseded generations swept, zero live sessions after
//     the drain.
func TestChaosConcurrentTenantsDuringAppends(t *testing.T) {
	sys, batches, reg := newChaosSystem(t)
	if _, err := sys.IngestAppend(batches[0]); err != nil {
		t.Fatal(err)
	}
	m := NewManager(sys, Options{Metrics: reg})
	ctx := context.Background()

	const tenants = 4
	const goroutinesPerTenant = 2
	const runsEach = 12
	for i := 0; i < tenants; i++ {
		if _, err := m.Create(fmt.Sprintf("t%d", i), fmt.Sprintf("acme%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the cache at the current generation so the appends below have
	// entries to sweep — EvictBelow coverage must not depend on timing.
	warm, err := m.Run(ctx, "t0", Request{Op: "select", Params: map[string]string{"minmean": "5"}})
	if err != nil {
		t.Fatal(err)
	}

	type obsn struct {
		params string
		gen    uint64
		value  any
		source string
	}
	var (
		mu        sync.Mutex
		seen      []obsn
		firstErr  error
		wg        sync.WaitGroup
		appenderW sync.WaitGroup
	)
	record := func(params string, gen uint64, value any, source string, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err == nil {
			seen = append(seen, obsn{params, gen, value, source})
		}
	}

	appenderW.Add(1)
	go func() {
		defer appenderW.Done()
		for _, b := range batches[1:] {
			if _, err := sys.IngestAppend(b); err != nil {
				record("", 0, nil, "", err)
			}
		}
	}()
	for i := 0; i < tenants; i++ {
		for g := 0; g < goroutinesPerTenant; g++ {
			wg.Add(1)
			go func(tenant int) {
				defer wg.Done()
				id := fmt.Sprintf("t%d", tenant)
				for r := 0; r < runsEach; r++ {
					// Half the load is fleet-identical (single-flight and
					// cross-tenant sharing), half is tenant-distinct.
					minmean := "5"
					if r%2 == 1 {
						minmean = fmt.Sprintf("%d", 6+tenant)
					}
					req := Request{Op: "select", Params: map[string]string{"minmean": minmean}}
					g0 := sys.Generation()
					resp, err := m.Run(ctx, id, req)
					g1 := sys.Generation()
					if err != nil {
						record(minmean, 0, nil, "", err)
						continue
					}
					if resp.Generation < g0 || resp.Generation > g1 {
						record(minmean, 0, nil, "",
							fmt.Errorf("cross-generation serve: got gen %d outside request window [%d, %d]",
								resp.Generation, g0, g1))
						continue
					}
					record(minmean, resp.Generation, resp.Result, resp.Source, nil)
				}
			}(i)
		}
	}
	wg.Wait()
	appenderW.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Every response for the same (params, generation) must be
	// identical — the cache may never blend generations.
	canon := map[string]any{}
	distinct := map[string]bool{}
	for _, o := range seen {
		key := fmt.Sprintf("%s@%d", o.params, o.gen)
		distinct[key] = true
		if prev, ok := canon[key]; !ok {
			canon[key] = o.value
		} else if !reflect.DeepEqual(prev, o.value) {
			t.Fatalf("two responses for %s diverge", key)
		}
	}

	stats := sys.ResultCacheStats()
	if stats.InFlight != 0 {
		t.Errorf("in-flight computes leaked: %d", stats.InFlight)
	}
	// Every request is one lookup, and every computed select looks up
	// its tissue aggregate once more.
	total := int64(len(seen)) + 1 // the recorded runs and the warmup
	gens := map[uint64]bool{warm.Generation: true}
	if warm.Source == "computed" {
		total++
	}
	for _, o := range seen {
		gens[o.gen] = true
		if o.source == "computed" {
			total++
		}
	}
	if got := stats.Hits + stats.Misses + stats.Shared; got != total {
		t.Errorf("accounting leak: hits %d + misses %d + shared %d = %d, want %d lookups",
			stats.Hits, stats.Misses, stats.Shared, got, total)
	}
	// +1 for the warmup key, and one aggregate key per generation.
	if bound := int64(len(distinct) + 1 + len(gens)); stats.Misses > bound {
		t.Errorf("misses %d exceed %d distinct (params, generation) and aggregate keys — single-flight or keying broke",
			stats.Misses, bound)
	}
	if stats.Swept < 1 {
		t.Errorf("swept = %d; appends retired generations but nothing was evicted", stats.Swept)
	}
	if stats.Entries > rescache.DefaultMaxEntries {
		t.Errorf("entries %d exceed the bound %d", stats.Entries, rescache.DefaultMaxEntries)
	}

	// Drain: close every session and verify nothing lingers.
	for i := 0; i < tenants; i++ {
		if err := m.Close(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Active() != 0 {
		t.Errorf("sessions leaked after drain: %d", m.Active())
	}
	if got := gaugeOf(reg.Snapshot(), "session.active"); got != 0 {
		t.Errorf("session.active gauge = %d after drain, want 0", got)
	}
	for i := 0; i < tenants; i++ {
		if sys.Lineage.Has(fmt.Sprintf("session/t%d", i)) {
			t.Errorf("session t%d lineage survived the drain", i)
		}
	}
}

// TestChaosSingleFlightExactlyOneCompute deterministically pins the
// single-flight contract at the session layer: a burst of identical
// requests on a fresh key produces exactly one compute.
func TestChaosSingleFlightExactlyOneCompute(t *testing.T) {
	sys, batches, _ := newChaosSystem(t)
	if _, err := sys.IngestAppend(batches[0]); err != nil {
		t.Fatal(err)
	}
	m := NewManager(sys, Options{})
	if _, err := m.Create("sf", "acme"); err != nil {
		t.Fatal(err)
	}
	before := sys.ResultCacheStats()

	const burst = 8
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := m.Run(context.Background(), "sf",
				Request{Op: "aggregate", Params: map[string]string{"tissue": "brain", "median": "true"}})
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	after := sys.ResultCacheStats()
	if got := after.Misses - before.Misses; got != 1 {
		t.Errorf("burst of %d identical requests computed %d times, want exactly 1", burst, got)
	}
	if got := (after.Hits + after.Shared) - (before.Hits + before.Shared); got != burst-1 {
		t.Errorf("hits+shared = %d, want %d", got, burst-1)
	}
	if after.InFlight != 0 {
		t.Errorf("in-flight leaked: %d", after.InFlight)
	}
}

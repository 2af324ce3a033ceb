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
	"gea/internal/exec"
	"gea/internal/ingest"
	"gea/internal/obs"
	"gea/internal/rescache"
	"gea/internal/sagegen"
	"gea/internal/system"
)

// newSharingSystem builds a cached, tenant-governed system over an
// append store holding the first two of three small-corpus batches
// (brain and breast), and returns the batch still to append. One
// admission slot pins that shared sub-lookups never take a second one.
func newSharingSystem(t *testing.T) (*system.System, ingest.Batch) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	retry := ingest.DefaultRetry()
	retry.Sleep = func(time.Duration) {}
	st, corpus, _, err := ingest.Open(atomicio.OS{}, dir, retry)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.New(corpus, system.Options{
		User:          "sharing",
		MaxConcurrent: 1,
		Ingest:        &system.IngestOptions{Store: st},
		ResultCache:   &rescache.Options{},
		TenantPolicy:  &admission.TenantPolicy{Envelope: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	libs, _, err := sagegen.EmitBatches(sagegen.SmallConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range libs[:2] {
		if _, err := sys.IngestAppend(ingest.BatchFromLibraries(ls)); err != nil {
			t.Fatal(err)
		}
	}
	return sys, ingest.BatchFromLibraries(libs[2])
}

// TestSharedAggregateOncePerGeneration pins the sharing itself: N
// topgaps with distinct x over one tissue pair compute each tissue's
// SUMY once per generation, reuse it for every later topgap, and
// compute it once more after an append moves the generation.
func TestSharedAggregateOncePerGeneration(t *testing.T) {
	sys, rest := newSharingSystem(t)
	m := NewManager(sys, Options{})
	if _, err := m.Create("s", "acme"); err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), col)
	count := func(name string) int64 {
		if v := counterOf(col.Metrics.Snapshot(), name); v > 0 {
			return v
		}
		return 0
	}

	const n = 5
	var units int64
	topgaps := func() {
		t.Helper()
		for x := 1; x <= n; x++ {
			resp, err := m.Run(ctx, "s", Request{Op: "topgap", Params: map[string]string{
				"a": "brain", "b": "breast", "x": fmt.Sprint(x)}})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Source != "computed" || resp.Partial {
				t.Fatalf("topgap x=%d: source %q partial %v, want a complete computation", x, resp.Source, resp.Partial)
			}
			if units == 0 {
				units = resp.Units
			} else if resp.Units != units {
				t.Fatalf("topgap x=%d reports %d units, want %d: reuse must charge what it saves", x, resp.Units, units)
			}
		}
	}

	topgaps()
	if got := count("ops.core.Aggregate.count"); got != 2 {
		t.Errorf("%d topgaps computed %d aggregates, want 2 (one per tissue)", n, got)
	}
	if got := count("ops.system.Reuse.count"); got != 2*(n-1) {
		t.Errorf("reuse spans = %d, want %d", got, 2*(n-1))
	}
	// The shared SUMYs are the explicit aggregate's entries.
	for _, tissue := range []string{"brain", "breast"} {
		resp, err := m.Run(ctx, "s", Request{Op: "aggregate", Params: map[string]string{"tissue": tissue}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != "hit" {
			t.Errorf("aggregate %s after the topgaps: source %q, want hit", tissue, resp.Source)
		}
	}

	gen := sys.Generation()
	if _, err := sys.IngestAppend(rest); err != nil {
		t.Fatal(err)
	}
	if sys.Generation() == gen {
		t.Fatal("append did not move the generation")
	}
	units = 0
	topgaps()
	if got := count("ops.core.Aggregate.count"); got != 4 {
		t.Errorf("after an append: %d aggregates computed in all, want 4 (once per tissue per generation)", got)
	}
}

// TestSharedAggregateBudgetStopsMatchCold pins the budget rule: a
// stored SUMY is reused only when the budget can pay for it without
// stopping, so budgets that stop inside the first aggregate, the second
// aggregate or the diff give the same value, units and partial flag
// with a warm cache as with none. Units are compared at one worker
// only: at more, a budget stop's unit count depends on how many shards
// were already running, cold or warm, while the value does not.
func TestSharedAggregateBudgetStopsMatchCold(t *testing.T) {
	cached, cold, _ := crossCachePair(t)
	ctx := context.Background()
	unitsOf := func(req Request) int64 {
		t.Helper()
		resp, err := cold.Run(ctx, "cc", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Units
	}
	ua := unitsOf(Request{Op: "aggregate", Params: map[string]string{"tissue": "brain"}})
	ub := unitsOf(Request{Op: "aggregate", Params: map[string]string{"tissue": "kidney"}})
	total := unitsOf(Request{Op: "diff", Params: map[string]string{"a": "brain", "b": "kidney"}})
	ud := total - ua - ub
	if ua < 4 || ub < 4 || ud < 4 {
		t.Fatalf("units %d/%d/%d too small to stop inside each stage", ua, ub, ud)
	}
	for _, tissue := range []string{"brain", "kidney"} {
		if _, err := cached.Run(ctx, "cc", Request{Op: "aggregate", Params: map[string]string{"tissue": tissue}}); err != nil {
			t.Fatal(err)
		}
	}

	budgets := []int64{
		1, ua / 2, ua, ua + 1, // inside the first aggregate, then just past it
		ua + ub/2, ua + ub, ua + ub + 1, // inside the second
		ua + ub + ud/2, total - 1, // inside the diff
	}
	for _, op := range []string{"diff", "topgap"} {
		for _, workers := range []int{1, 4} {
			for _, budget := range budgets {
				req := Request{Op: op, Params: map[string]string{"a": "brain", "b": "kidney", "x": "7"},
					Budget: budget, Workers: workers}
				want, err := cold.Run(ctx, "cc", req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cached.Run(ctx, "cc", req)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s workers=%d budget=%d", op, workers, budget)
				if !want.Partial {
					t.Fatalf("%s: cold run completed; the budget no longer stops it", where)
				}
				if got.Source != "computed" {
					t.Fatalf("%s: source %q, want computed (partials are never stored)", where, got.Source)
				}
				if got.Partial != want.Partial || (workers == 1 && got.Units != want.Units) {
					t.Errorf("%s: warm units %d partial %v, cold units %d partial %v",
						where, got.Units, got.Partial, want.Units, want.Partial)
				}
				if !reflect.DeepEqual(got.Result, want.Result) {
					t.Errorf("%s: warm result diverges from the cold one", where)
				}
			}
		}
	}
}

// TestSharedAggregateJoinsPartialFlight pins that a composite never
// builds on a budget-stopped SUMY it did not ask for: a select that
// joins an explicit, budget-starved aggregate of the same tissue still
// returns the complete result. Nothing outside the cache shows the
// moment the select joins, so a run in which it came too late to join
// is repeated with a fresh select key.
func TestSharedAggregateJoinsPartialFlight(t *testing.T) {
	cached, cold, _ := crossCachePair(t)
	ctx := context.Background()
	sys := cached.sys
	for attempt := 0; ; attempt++ {
		shared := sys.ResultCacheStats().Shared
		sel := Request{Op: "select", Params: map[string]string{"tissue": "breast", "minmean": fmt.Sprint(5 + attempt)}}

		// Hold the starved aggregate at its first checkpoint until the
		// select's flight is open. (A budget this small still gives the
		// first shard a slice, so the checkpoint happens.)
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		hookCtx := exec.WithHook(ctx, func(int64) {
			once.Do(func() {
				close(entered)
				<-release
			})
		})
		starved := make(chan *Response, 1)
		go func() {
			resp, err := cached.Run(hookCtx, "cc", Request{Op: "aggregate",
				Params: map[string]string{"tissue": "breast"}, Budget: 100})
			if err != nil {
				t.Error(err)
			}
			starved <- resp
		}()
		<-entered
		joined := make(chan *Response, 1)
		go func() {
			resp, err := cached.Run(ctx, "cc", sel)
			if err != nil {
				t.Error(err)
			}
			joined <- resp
		}()
		// The select's first step after opening its flight is the
		// aggregate lookup, which joins the held flight.
		for sys.ResultCacheStats().InFlight < 2 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(10 * time.Millisecond)
		close(release)

		if resp := <-starved; resp == nil || !resp.Partial {
			t.Fatalf("the starved aggregate must end partial: %+v", resp)
		}
		got := <-joined
		if got == nil {
			t.FailNow()
		}
		want, err := cold.Run(ctx, "cc", sel)
		if err != nil {
			t.Fatal(err)
		}
		if got.Partial {
			t.Fatal("select built on the joined partial aggregate")
		}
		if got.Units != want.Units || !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("select after joining a partial flight: units %d vs cold %d, equal results %v",
				got.Units, want.Units, reflect.DeepEqual(got.Result, want.Result))
		}
		if sys.ResultCacheStats().Shared > shared {
			return
		}
		if attempt == 4 {
			t.Fatal("the select never joined the held aggregate flight")
		}
	}
}

// TestSharedAggregateTenantChargedComputedOnly pins the tenant rule: a
// reply's units include the reused SUMY's, but its tenant is charged
// only for the units its request actually computed.
func TestSharedAggregateTenantChargedComputedOnly(t *testing.T) {
	sys, _ := newSessionSystem(t)
	m := NewManager(sys, Options{})
	for _, s := range [][2]string{{"a", "acme"}, {"b", "beta"}} {
		if _, err := m.Create(s[0], s[1]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	charged := func(tenant string) int64 {
		for _, ts := range sys.TenantStats().Tenants {
			if ts.Tenant == tenant {
				return ts.Charged
			}
		}
		return 0
	}
	run := func(id string, req Request) *Response {
		t.Helper()
		resp, err := m.Run(ctx, id, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != "computed" {
			t.Fatalf("%s %v: source %q, want computed", req.Op, req.Params, resp.Source)
		}
		return resp
	}

	agg := run("a", Request{Op: "aggregate", Params: map[string]string{"tissue": "brain"}})
	if got := charged("acme"); got != agg.Units {
		t.Fatalf("acme charged %d, want its aggregate's %d units", got, agg.Units)
	}
	// beta's select reuses acme's brain SUMY: the reply reports it, the
	// charge does not.
	reused := run("b", Request{Op: "select", Params: map[string]string{"tissue": "brain", "minmean": "5"}})
	if reused.Units <= agg.Units {
		t.Fatalf("select units %d must include the reused aggregate's %d", reused.Units, agg.Units)
	}
	if got, want := charged("beta"), reused.Units-agg.Units; got != want {
		t.Errorf("beta charged %d after a reusing select, want %d (its own step only)", got, want)
	}
	// A select whose SUMY nobody computed yet pays for all of it.
	before := charged("beta")
	fresh := run("b", Request{Op: "select", Params: map[string]string{"tissue": "kidney", "minmean": "5"}})
	if got := charged("beta") - before; got != fresh.Units {
		t.Errorf("beta charged %d for a select that computed its SUMY, want all %d units", got, fresh.Units)
	}
	if got := charged("acme"); got != agg.Units {
		t.Errorf("acme charged %d after beta's runs, want still %d", got, agg.Units)
	}
}

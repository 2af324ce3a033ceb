package admission

import (
	"testing"
	"time"

	"gea/internal/exec"
	"gea/internal/obs"
)

// fakeClock drives a Tenants governor deterministically.
type fakeClock struct{ at time.Time }

func (f *fakeClock) now() time.Time          { return f.at }
func (f *fakeClock) advance(d time.Duration) { f.at = f.at.Add(d) }

func newTestTenants(pol TenantPolicy) (*Tenants, *fakeClock) {
	t := NewTenants(pol)
	clk := &fakeClock{at: time.Unix(1000, 0)}
	t.now = clk.now
	return t, clk
}

func TestTenantsNilIsNoop(t *testing.T) {
	var g *Tenants
	lim := exec.Limits{Budget: 100}
	got, throttled := g.Shape("heavy", lim)
	if throttled || got != lim {
		t.Errorf("nil governor shaped: %+v throttled=%v", got, throttled)
	}
	g.Charge("heavy", 50) // must not panic
	if st := g.Stats(); len(st.Tenants) != 0 {
		t.Errorf("nil governor has tenants: %+v", st)
	}
	if NewTenants(TenantPolicy{}) != nil {
		t.Error("zero envelope should disable tenant shaping")
	}
}

func TestTenantsThrottleAtEnvelope(t *testing.T) {
	g, _ := newTestTenants(TenantPolicy{Envelope: 100})
	lim := exec.Limits{Budget: 80}

	if got, throttled := g.Shape("a", lim); throttled || got.Budget != 80 {
		t.Fatalf("fresh tenant shaped: %+v throttled=%v", got, throttled)
	}
	g.Charge("a", 60)
	if _, throttled := g.Shape("a", lim); throttled {
		t.Fatal("tenant under envelope throttled")
	}
	g.Charge("a", 60) // 120 ≥ 100
	got, throttled := g.Shape("a", lim)
	if !throttled {
		t.Fatal("tenant over envelope not throttled")
	}
	if got.Budget != 20 { // 80 × 0.25
		t.Errorf("shaped budget=%d, want 20", got.Budget)
	}

	// The heavy tenant degrades itself, not the fleet.
	if got, throttled := g.Shape("b", lim); throttled || got.Budget != 80 {
		t.Errorf("other tenant shaped: %+v throttled=%v", got, throttled)
	}
}

func TestTenantsUnlimitedBudgetCapped(t *testing.T) {
	// A throttled tenant's unlimited budget is capped at its envelope.
	g, _ := newTestTenants(TenantPolicy{Envelope: 100})
	g.Charge("a", 200)
	got, throttled := g.Shape("a", exec.Limits{})
	if !throttled || got.Budget != 100 {
		t.Errorf("unlimited budget=%d throttled=%v, want envelope 100", got.Budget, throttled)
	}
}

func TestTenantsDebtDecays(t *testing.T) {
	g, clk := newTestTenants(TenantPolicy{Envelope: 100, Window: 10 * time.Second})
	g.Charge("a", 150)
	if _, throttled := g.Shape("a", exec.Limits{Budget: 10}); !throttled {
		t.Fatal("not throttled at debt 150")
	}
	// Debt leaks at envelope/window = 10 units/s: after 6s, 150-60=90.
	clk.advance(6 * time.Second)
	if _, throttled := g.Shape("a", exec.Limits{Budget: 10}); throttled {
		t.Fatal("still throttled after decay below envelope")
	}
	// Debt floors at zero rather than banking negative credit.
	clk.advance(time.Hour)
	g.Charge("a", 99)
	if _, throttled := g.Shape("a", exec.Limits{Budget: 10}); throttled {
		t.Fatal("throttled at 99 after full decay — debt went negative?")
	}
	g.Charge("a", 1)
	if _, throttled := g.Shape("a", exec.Limits{Budget: 10}); !throttled {
		t.Fatal("not throttled at exactly the envelope")
	}
}

func TestTenantsAnonymousNeverShaped(t *testing.T) {
	g, _ := newTestTenants(TenantPolicy{Envelope: 10})
	g.Charge("", 1_000_000)
	if _, throttled := g.Shape("", exec.Limits{Budget: 5}); throttled {
		t.Error("anonymous tenant throttled")
	}
	if st := g.Stats(); len(st.Tenants) != 0 {
		t.Errorf("anonymous tenant tracked: %+v", st.Tenants)
	}
}

func TestTenantsStatsAndMetrics(t *testing.T) {
	r := obs.NewRegistry()
	g := NewTenants(TenantPolicy{Envelope: 100, Metrics: r})
	clk := &fakeClock{at: time.Unix(1000, 0)}
	g.now = clk.now

	g.Charge("b", 150)
	g.Charge("a", 10)
	g.Shape("b", exec.Limits{Budget: 10}) // throttled
	g.Shape("a", exec.Limits{Budget: 10}) // not

	st := g.Stats()
	if st.Envelope != 100 || len(st.Tenants) != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Tenants[0].Tenant != "a" || st.Tenants[1].Tenant != "b" {
		t.Errorf("tenants not sorted: %+v", st.Tenants)
	}
	if st.Tenants[0].Throttled || !st.Tenants[1].Throttled {
		t.Errorf("throttle flags wrong: %+v", st.Tenants)
	}
	if st.Tenants[1].Charged != 150 {
		t.Errorf("charged=%d, want 150", st.Tenants[1].Charged)
	}

	snap := r.Snapshot()
	vals := map[string]int64{}
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	for _, gp := range snap.Gauges {
		vals[gp.Name] = gp.Value
	}
	if vals["tenant.charged_units"] != 160 {
		t.Errorf("tenant.charged_units=%d, want 160", vals["tenant.charged_units"])
	}
	if vals["tenant.throttled"] != 1 {
		t.Errorf("tenant.throttled=%d, want 1", vals["tenant.throttled"])
	}
	if vals["tenant.known"] != 2 {
		t.Errorf("tenant.known=%d, want 2", vals["tenant.known"])
	}
}

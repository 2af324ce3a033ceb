package obs

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the lock-cheap metrics store: name lookup takes a
// read-lock, every increment/observation is a plain atomic. Metric
// handles are stable — hot callers should look up once and hold the
// handle.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bound bucket histogram: bounds are ascending
// upper bounds, with one implicit overflow bucket past the last, so
// memory is bounded no matter how many observations arrive.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// LatencyBounds is the shared per-operator latency bucketing, in
// seconds: 100µs up to 100s, one decade per bucket.
var LatencyBounds = []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}

// RateBounds is the shared units-per-second bucketing: 1k up to 1G
// units/s, one decade per bucket.
var RateBounds = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many samples have been observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the running sum of observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls ignore bounds; the first creation
// wins, so a series keeps one bucketing for its whole life.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// CheckpointHook returns an exec.Hook-shaped adapter that counts
// checkpoint polls into the "exec.checkpoints" counter. It is safe to
// call from concurrent shard workers.
func (r *Registry) CheckpointHook() func(nth int64) {
	ctr := r.Counter("exec.checkpoints")
	return func(int64) { ctr.Add(1) }
}

// CounterPoint is one counter in a Snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge in a Snapshot.
type GaugePoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramPoint is one histogram in a Snapshot. Counts has one entry
// per bound plus a final overflow bucket, so len(Counts) ==
// len(Bounds)+1 and no non-finite bound ever reaches JSON.
type HistogramPoint struct {
	Name   string    `json:"name"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot is a point-in-time copy of the registry with deterministic
// (name-sorted) ordering, so tests can golden its JSON form.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// Snapshot captures every metric, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		p := HistogramPoint{Name: name, Count: h.Count(), Sum: h.Sum()}
		p.Bounds = append(p.Bounds, h.bounds...)
		p.Counts = make([]int64, len(h.counts))
		for i := range h.counts {
			p.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, p)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// String renders the snapshot as an aligned text block — what the
// repl's "stats" command prints.
func (s Snapshot) String() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-40s %d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-40s %d\n", g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, h := range s.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(&b, "  %-40s n=%d mean=%.3g\n", h.Name, h.Count, mean)
		}
	}
	if b.Len() == 0 {
		return "no metrics recorded\n"
	}
	return b.String()
}

// publishMu serialises the check-then-publish below; expvar itself
// panics on a duplicate name.
var publishMu sync.Mutex

// Publish exposes the registry's Snapshot on expvar under name, for
// the serve -debug /debug/vars endpoint. Publishing the same name
// twice is a no-op rather than the expvar panic, so tests and repeated
// serve sessions in one process stay safe.
func (r *Registry) Publish(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

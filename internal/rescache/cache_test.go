package rescache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gea/internal/obs"
)

func mustKey(t *testing.T, gen uint64, op string, params any) Key {
	t.Helper()
	k, err := Canonical(gen, op, params)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCacheHitReturnsSameValue(t *testing.T) {
	c := New(Options{})
	k := mustKey(t, 1, "mine", map[string]string{"tissue": "brain"})
	val := []int{1, 2, 3}
	res, src, err := c.Do(context.Background(), k, 1, func() (Computed, error) {
		return Computed{Value: val, Bytes: 24, Units: 7}, nil
	})
	if err != nil || src != SourceComputed {
		t.Fatalf("first Do: src=%v err=%v", src, err)
	}
	res2, src2, err := c.Do(context.Background(), k, 1, func() (Computed, error) {
		t.Fatal("hit path ran the compute")
		return Computed{}, nil
	})
	if err != nil || src2 != SourceHit {
		t.Fatalf("second Do: src=%v err=%v", src2, err)
	}
	// Identity, not just equality: a hit serves the very object the
	// compute returned, which is what makes DeepEqual trivially hold.
	if &res.Value.([]int)[0] != &res2.Value.([]int)[0] {
		t.Error("hit returned a different backing object than the compute")
	}
	if res2.Units != 7 {
		t.Errorf("hit lost the compute's units: %d", res2.Units)
	}
	if !src2.Cached() || src.Cached() {
		t.Errorf("Cached(): computed=%v hit=%v", src.Cached(), src2.Cached())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := New(Options{Metrics: obs.NewRegistry()})
	k := mustKey(t, 1, "aggregate", 42)
	var computes atomic.Int64
	gate := make(chan struct{})
	const followers = 16
	var wg sync.WaitGroup
	results := make([]Source, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, src, err := c.Do(context.Background(), k, 1, func() (Computed, error) {
				computes.Add(1)
				<-gate
				return Computed{Value: "v", Bytes: 1}, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = src
		}(i)
	}
	// Let every goroutine reach the cache before releasing the leader.
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("single-flight ran %d computes, want 1", n)
	}
	var leaders, shared int
	for _, s := range results {
		switch s {
		case SourceComputed:
			leaders++
		case SourceShared:
			shared++
		}
	}
	if leaders != 1 {
		t.Errorf("want exactly 1 leader, got %d (shared=%d)", leaders, shared)
	}
	if st := c.Stats(); st.InFlight != 0 {
		t.Errorf("flight leaked: %d in flight after completion", st.InFlight)
	}
}

func TestCacheSharedError(t *testing.T) {
	c := New(Options{})
	k := mustKey(t, 1, "diff", "x")
	boom := errors.New("boom")
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(context.Background(), k, 1, func() (Computed, error) {
				<-gate
				return Computed{}, boom
			})
		}(i)
	}
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d: err=%v, want boom", i, err)
		}
	}
	if c.Len() != 0 {
		t.Errorf("errored compute was stored: %d entries", c.Len())
	}
	// The key must be retryable after the failed flight.
	_, src, err := c.Do(context.Background(), k, 1, func() (Computed, error) {
		return Computed{Value: "ok", Bytes: 1}, nil
	})
	if err != nil || src != SourceComputed {
		t.Fatalf("retry after error: src=%v err=%v", src, err)
	}
}

func TestCachePartialNeverStored(t *testing.T) {
	c := New(Options{})
	k := mustKey(t, 1, "mine", "partial")
	res, src, err := c.Do(context.Background(), k, 1, func() (Computed, error) {
		return Computed{Value: "half", Bytes: 4, Partial: true}, nil
	})
	if err != nil || src != SourceComputed || !res.Partial {
		t.Fatalf("partial compute: res=%+v src=%v err=%v", res, src, err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("budget-stopped partial result was cached")
	}
	if st := c.Stats(); st.UncacheablePartial != 1 {
		t.Errorf("uncacheable_partial=%d, want 1", st.UncacheablePartial)
	}
	// The next caller with headroom computes the full result and that
	// one is stored.
	_, src, err = c.Do(context.Background(), k, 1, func() (Computed, error) {
		return Computed{Value: "full", Bytes: 4}, nil
	})
	if err != nil || src != SourceComputed {
		t.Fatalf("full recompute: src=%v err=%v", src, err)
	}
	if got, ok := c.Get(k); !ok || got.Value != "full" {
		t.Fatalf("full result not stored: %+v ok=%v", got, ok)
	}
}

func TestCacheFollowerContextCancel(t *testing.T) {
	c := New(Options{})
	k := mustKey(t, 1, "slow", 1)
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := c.Do(context.Background(), k, 1, func() (Computed, error) {
			<-gate
			return Computed{Value: "v", Bytes: 1}, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, k, 1, func() (Computed, error) {
		t.Error("cancelled follower ran the compute")
		return Computed{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err=%v, want context.Canceled", err)
	}
	// The leader is unaffected by the follower leaving.
	close(gate)
	<-leaderDone
	if _, ok := c.Get(k); !ok {
		t.Error("leader's result was not stored after follower cancellation")
	}
}

// waitSignal is a context that reports the first read of its Done
// channel; Do reads a follower's Done only to wait on a flight, so the
// signal marks the follower as joined.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (w *waitSignal) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

// TestCacheFollowerOutlivesLeaderCancel pins that a follower does not
// inherit the leader's cancellation: the leader's client goes away
// mid-compute, and a follower whose own context is live computes the
// key itself instead of failing with the leader's context error.
func TestCacheFollowerOutlivesLeaderCancel(t *testing.T) {
	for _, leaderErr := range []error{context.Canceled, context.DeadlineExceeded} {
		t.Run(leaderErr.Error(), func(t *testing.T) {
			c := New(Options{})
			k := mustKey(t, 1, "slow", 2)
			leaderCtx, cancelLeader := context.WithCancel(context.Background())
			leaderDone := make(chan error, 1)
			go func() {
				_, _, err := c.Do(leaderCtx, k, 1, func() (Computed, error) {
					<-leaderCtx.Done()
					return Computed{}, fmt.Errorf("compute stopped: %w", leaderErr)
				})
				leaderDone <- err
			}()
			for c.Stats().InFlight == 0 {
				time.Sleep(time.Millisecond)
			}
			follower := &waitSignal{Context: context.Background(), waiting: make(chan struct{})}
			followerDone := make(chan struct{})
			var (
				res Computed
				src Source
				err error
			)
			go func() {
				defer close(followerDone)
				res, src, err = c.Do(follower, k, 1, func() (Computed, error) {
					return Computed{Value: "mine", Bytes: 1, Units: 7}, nil
				})
			}()
			<-follower.waiting
			cancelLeader()
			if lerr := <-leaderDone; !errors.Is(lerr, leaderErr) {
				t.Fatalf("leader err=%v, want %v", lerr, leaderErr)
			}
			<-followerDone
			if err != nil {
				t.Fatalf("follower inherited the leader's cancellation: %v", err)
			}
			if src != SourceComputed || res.Value != "mine" || res.Units != 7 {
				t.Fatalf("follower got src=%v value=%v units=%d, want its own computed result", src, res.Value, res.Units)
			}
			if _, ok := c.Get(k); !ok {
				t.Error("the follower's recompute was not stored")
			}
			// One lookup per call, by final outcome: two misses.
			st := c.Stats()
			if st.Hits != 0 || st.Misses != 2 || st.Shared != 0 {
				t.Errorf("hits %d, misses %d, shared %d; want two misses for two calls", st.Hits, st.Misses, st.Shared)
			}
		})
	}
}

func TestCacheEntryBound(t *testing.T) {
	c := New(Options{MaxEntries: 3})
	for i := 0; i < 5; i++ {
		k := mustKey(t, 1, "op", i)
		if _, _, err := c.Do(context.Background(), k, 1, func() (Computed, error) {
			return Computed{Value: i, Bytes: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("entries=%d, want 3", c.Len())
	}
	// Oldest two evicted, newest three retained.
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(mustKey(t, 1, "op", i)); ok {
			t.Errorf("entry %d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := c.Get(mustKey(t, 1, "op", i)); !ok {
			t.Errorf("entry %d should be retained", i)
		}
	}
	if st := c.Stats(); st.Evicted != 2 {
		t.Errorf("evicted=%d, want 2", st.Evicted)
	}
}

func TestCacheLRUTouchOnHit(t *testing.T) {
	c := New(Options{MaxEntries: 2})
	ka := mustKey(t, 1, "op", "a")
	kb := mustKey(t, 1, "op", "b")
	kc := mustKey(t, 1, "op", "c")
	store := func(k Key, v string) {
		if _, _, err := c.Do(context.Background(), k, 1, func() (Computed, error) {
			return Computed{Value: v, Bytes: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	store(ka, "a")
	store(kb, "b")
	if _, _, err := c.Do(context.Background(), ka, 1, nil); err != nil {
		t.Fatal(err) // hit: fn never called, nil is fine
	}
	store(kc, "c") // evicts b (LRU), not a (just touched)
	if _, ok := c.Get(ka); !ok {
		t.Error("recently used entry a was evicted")
	}
	if _, ok := c.Get(kb); ok {
		t.Error("least recently used entry b survived")
	}
}

func TestCacheByteBound(t *testing.T) {
	c := New(Options{MaxEntries: 100, MaxBytes: 10})
	for i := 0; i < 4; i++ {
		k := mustKey(t, 1, "op", i)
		if _, _, err := c.Do(context.Background(), k, 1, func() (Computed, error) {
			return Computed{Value: i, Bytes: 4}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > 10 {
		t.Errorf("bytes=%d exceeds bound 10", st.Bytes)
	}
	if st.Entries != 2 {
		t.Errorf("entries=%d, want 2 (4-byte entries under a 10-byte cap)", st.Entries)
	}
	// A single result larger than the whole budget must not wedge the
	// cache: it is swept straight out and later inserts still work.
	big := mustKey(t, 1, "op", "big")
	if _, _, err := c.Do(context.Background(), big, 1, func() (Computed, error) {
		return Computed{Value: "big", Bytes: 1 << 20}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(big); ok {
		t.Error("oversized entry was retained")
	}
	if st := c.Stats(); st.Bytes > 10 {
		t.Errorf("bytes=%d after oversized insert", st.Bytes)
	}
}

func TestCacheEvictBelow(t *testing.T) {
	c := New(Options{})
	for gen := uint64(1); gen <= 3; gen++ {
		for i := 0; i < 2; i++ {
			k := mustKey(t, gen, "op", i)
			if _, _, err := c.Do(context.Background(), k, gen, func() (Computed, error) {
				return Computed{Value: fmt.Sprintf("g%d-%d", gen, i), Bytes: 8}, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := c.EvictBelow(3); n != 4 {
		t.Fatalf("EvictBelow swept %d, want 4", n)
	}
	if c.Len() != 2 {
		t.Fatalf("entries=%d after sweep, want 2", c.Len())
	}
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(mustKey(t, 3, "op", i)); !ok {
			t.Errorf("current-generation entry %d swept", i)
		}
	}
	st := c.Stats()
	if st.Swept != 4 {
		t.Errorf("swept=%d, want 4", st.Swept)
	}
	if st.Bytes != 16 {
		t.Errorf("bytes=%d after sweep, want 16", st.Bytes)
	}
	if n := c.EvictBelow(3); n != 0 {
		t.Errorf("idempotent sweep removed %d", n)
	}
}

func TestCacheMetrics(t *testing.T) {
	r := obs.NewRegistry()
	c := New(Options{MaxEntries: 1, Metrics: r})
	k1 := mustKey(t, 1, "op", 1)
	k2 := mustKey(t, 1, "op", 2)
	do := func(k Key) {
		if _, _, err := c.Do(context.Background(), k, 1, func() (Computed, error) {
			return Computed{Value: "v", Bytes: 2}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	do(k1)
	do(k1) // hit
	do(k2) // miss, evicts k1
	snap := r.Snapshot()
	want := map[string]int64{
		"cache.hits":    1,
		"cache.misses":  2,
		"cache.evicted": 1,
		"cache.entries": 1,
		"cache.bytes":   2,
	}
	got := map[string]int64{}
	for _, m := range snap.Counters {
		got[m.Name] = m.Value
	}
	for _, m := range snap.Gauges {
		got[m.Name] = m.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s=%d, want %d", name, got[name], v)
		}
	}
}

// TestCacheLeaderPanicReleasesFlight pins that a compute panicking
// through Do cannot strand its flight: the panic reaches the leader's
// caller, a follower that had joined wakes with an error, nothing is
// stored, and the next Do on the key runs its own compute.
func TestCacheLeaderPanicReleasesFlight(t *testing.T) {
	c := New(Options{})
	k := mustKey(t, 1, "crash", 3)
	crash := make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		_, _, _ = c.Do(context.Background(), k, 1, func() (Computed, error) {
			<-crash
			panic("compute crashed")
		})
	}()
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	follower := &waitSignal{Context: context.Background(), waiting: make(chan struct{})}
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(follower, k, 1, func() (Computed, error) {
			return Computed{Value: "follower", Bytes: 1}, nil
		})
		followerDone <- err
	}()
	<-follower.waiting
	close(crash)
	if rec := <-leaderDone; rec != "compute crashed" {
		t.Fatalf("leader's caller recovered %v, want the compute's panic", rec)
	}
	select {
	case err := <-followerDone:
		if err == nil {
			t.Error("the follower of a panicked flight returned a nil error")
		}
	case <-time.After(2 * time.Second):
		t.Error("the follower is still blocked on the panicked flight")
	}
	if n := c.Stats().InFlight; n != 0 {
		t.Errorf("InFlight = %d after the leader panicked, want 0", n)
	}
	if _, ok := c.Get(k); ok {
		t.Error("a panicked flight stored a result")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, src, err := c.Do(ctx, k, 1, func() (Computed, error) {
		return Computed{Value: "recomputed", Bytes: 1}, nil
	})
	if err != nil || src != SourceComputed || res.Value != "recomputed" {
		t.Errorf("next Do: src=%v value=%v err=%v, want its own compute", src, res.Value, err)
	}
}

package system

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gea/internal/core"
	"gea/internal/exec"
	"gea/internal/exec/execwalk"
	"gea/internal/rescache"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

// newExecSystem builds a session with brain metadata ready for mining.
func newExecSystem(t *testing.T) *System {
	t.Helper()
	sys, _ := newSystem(t)
	if _, err := sys.CreateTissueDataset("brain"); err != nil {
		t.Fatal(err)
	}
	if err := sys.GenerateMetadata("brain", 10); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCalculateFasciclesCheckpointWalk(t *testing.T) {
	sys := newExecSystem(t)
	d, err := sys.Dataset("brain")
	if err != nil {
		t.Fatal(err)
	}
	opts := FascicleOptions{
		K: d.NumTags() * 60 / 100, MinSize: 3, Algorithm: core.GreedyAlgorithm,
	}
	execwalk.Walk(t, execwalk.Target{
		Name: "CalculateFascicles",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := sys.CalculateFasciclesCtx(ctx, "brain", opts, lim)
			return tr, err
		},
		MaxProbes: 8,
	})
}

func TestCreateGapCheckpointWalk(t *testing.T) {
	sys, _ := newSystem(t)
	groups, _ := runBrainPipeline(t, sys)
	var n int64
	execwalk.Walk(t, execwalk.Target{
		Name: "CreateGap",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			name := fmt.Sprintf("walkgap_%d", atomic.AddInt64(&n, 1))
			_, tr, err := sys.CreateGapCtx(ctx, name, groups.InFascicle, groups.Opposite, lim)
			return tr, err
		},
		MaxProbes:   8,
		MaxUnitStep: 1,
	})
}

// TestFindPureFascicleBudget exercises the one operator whose result is a
// single name: budget exhaustion before success must surface as an error
// satisfying errors.Is(err, exec.ErrBudget), never a silent miss.
func TestFindPureFascicleBudget(t *testing.T) {
	sys := newExecSystem(t)
	_, tr, err := sys.FindPureFascicleCtx(context.Background(), "brain", sage.PropCancer, 3,
		core.LatticeAlgorithm, exec.Limits{Budget: 3})
	if !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("budget 3: got %v, want exec.ErrBudget", err)
	}
	if !tr.Partial {
		t.Fatalf("budget 3: trace not flagged partial: %+v", tr)
	}

	// With no limits the search succeeds and matches the legacy path.
	name, tr, err := sys.FindPureFascicleCtx(context.Background(), "brain", sage.PropCancer, 3, core.LatticeAlgorithm, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if name == "" || tr.Partial {
		t.Fatalf("unbounded search: name %q, trace %+v", name, tr)
	}
	legacy, err := sys.FindPureFascicle("brain", sage.PropCancer, 3)
	if err != nil {
		t.Fatal(err)
	}
	if legacy != name {
		t.Fatalf("legacy found %q, governed found %q", legacy, name)
	}
}

// TestFindPureFascicleCancel proves cancellation propagates out of the
// composite search as a context error wrapped in a structured ExecError.
func TestFindPureFascicleCancel(t *testing.T) {
	sys := newExecSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	ctx = exec.WithHook(ctx, func(nth int64) {
		if nth == 3 {
			cancel()
		}
	})
	_, _, err := sys.FindPureFascicleCtx(ctx, "brain", sage.PropCancer, 3,
		core.LatticeAlgorithm, exec.Limits{CheckEvery: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	var ee *exec.ExecError
	if !errors.As(err, &ee) || ee.Op != "system.CalculateFascicles" {
		t.Fatalf("got %v, want *ExecError from system.CalculateFascicles", err)
	}
}

// TestSystemPanicIsolation proves a panic inside a governed operation is
// recovered into a structured ExecError instead of crashing the session,
// and the session stays usable afterwards.
func TestSystemPanicIsolation(t *testing.T) {
	sys := newExecSystem(t)
	ctx := exec.WithHook(context.Background(), func(nth int64) {
		if nth == 2 {
			panic("induced fault")
		}
	})
	_, _, err := sys.CalculateFasciclesCtx(ctx, "brain",
		FascicleOptions{K: 10, MinSize: 3, Algorithm: core.GreedyAlgorithm},
		exec.Limits{CheckEvery: 1})
	var ee *exec.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("got %v, want *ExecError", err)
	}
	if ee.Op != "system.CalculateFascicles" || ee.PanicValue != "induced fault" || len(ee.Stack) == 0 {
		t.Fatalf("ExecError missing detail: %+v", ee)
	}
	// The session survived: the same operation succeeds cleanly.
	if _, _, err := sys.CalculateFasciclesCtx(context.Background(), "brain",
		FascicleOptions{K: 10, MinSize: 3, Algorithm: core.GreedyAlgorithm}, exec.Limits{}); err != nil {
		t.Fatalf("session unusable after recovered panic: %v", err)
	}
}

// TestAdmissionTimeout holds the only admission slot with a blocked
// operation and checks a second caller gives up with *ErrBusy, while a
// third with a cancelled context gets the context error.
func TestAdmissionTimeout(t *testing.T) {
	res, err := sagegen.Generate(sagegen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(res.Corpus, Options{MaxConcurrent: 1, AdmitTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateTissueDataset("brain"); err != nil {
		t.Fatal(err)
	}
	if err := sys.GenerateMetadata("brain", 10); err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	entered := make(chan struct{})
	var enterOnce sync.Once
	ctx := exec.WithHook(context.Background(), func(nth int64) {
		enterOnce.Do(func() { close(entered) })
		<-hold
	})
	done := make(chan error, 1)
	go func() {
		_, _, err := sys.CalculateFasciclesCtx(ctx, "brain",
			FascicleOptions{K: 10, MinSize: 3, Algorithm: core.GreedyAlgorithm},
			exec.Limits{CheckEvery: 1})
		done <- err
	}()
	<-entered // the slot is now held inside the mining loop

	_, _, err = sys.CalculateFasciclesCtx(context.Background(), "brain",
		FascicleOptions{K: 10, MinSize: 3, Algorithm: core.GreedyAlgorithm}, exec.Limits{})
	var busy *ErrBusy
	if !errors.As(err, &busy) {
		t.Fatalf("second caller: got %v, want *ErrBusy", err)
	}
	if busy.Waited < 50*time.Millisecond {
		t.Fatalf("ErrBusy.Waited = %v, want >= AdmitTimeout", busy.Waited)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sys.CalculateFasciclesCtx(cancelled, "brain",
		FascicleOptions{K: 10, MinSize: 3, Algorithm: core.GreedyAlgorithm}, exec.Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: got %v, want context.Canceled", err)
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("holder failed: %v", err)
	}
}

// TestConcurrentSystemOps hammers one session from many goroutines —
// mining, reads, listings and saves — and relies on the race detector (the
// CI suite runs with -race) to prove the registry lock and admission
// semaphore make the session safe for concurrent use.
func TestConcurrentSystemOps(t *testing.T) {
	sys := newExecSystem(t)
	dir := t.TempDir()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				_, _, err := sys.CalculateFasciclesCtx(context.Background(), "brain",
					FascicleOptions{K: 10, MinSize: 3, Algorithm: core.GreedyAlgorithm}, exec.Limits{})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			sys.TissueTypes()
			if _, err := sys.ListSumys(""); err != nil {
				errs <- err
				return
			}
			_, _ = sys.Fascicle("nope")
			_, _ = sys.Dataset("brain")
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := sys.SaveSession(dir); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The saved snapshot is loadable whichever interleaving won.
	loaded, err := LoadSession(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.LoadReport.OK() {
		t.Fatalf("concurrent save left a damaged session: %v", loaded.LoadReport)
	}
}

// TestCachedQueryLeaderPanic pins that a cached query's compute runs
// panic-isolated: a panic injected at a checkpoint, as execwalk's panic
// walk injects one, comes back as an *exec.ExecError carrying the panic
// value, the key's flight is released, and the same call then computes.
func TestCachedQueryLeaderPanic(t *testing.T) {
	res, err := sagegen.Generate(sagegen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(res.Corpus, Options{User: "jessica", Catalog: res.Catalog, GeneDBSeed: 1, ResultCache: &rescache.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	compute := func(c *exec.Ctl, snap Snapshot) (any, int64, bool, error) {
		s, partial, err := core.AggregateWith(c, "allSumy", core.FullEnum("all", snap.Data), core.AggregateOptions{})
		return s, 1, partial, err
	}
	type boom struct{ at int64 }
	ctx := exec.WithHook(context.Background(), func(nth int64) {
		if nth == 2 {
			panic(boom{at: nth})
		}
	})
	_, err = sys.CachedQueryCtx(ctx, "acme", "test.aggregate", "all", exec.Limits{}, compute)
	var ee *exec.ExecError
	if !errors.As(err, &ee) || ee.Op != "test.aggregate" || ee.PanicValue != (boom{at: 2}) {
		t.Fatalf("panicking compute: err = %v, want *exec.ExecError{test.aggregate} carrying boom{2}", err)
	}
	if n := sys.ResultCacheStats().InFlight; n != 0 {
		t.Fatalf("InFlight = %d after the panic, want 0", n)
	}
	qr, err := sys.CachedQueryCtx(context.Background(), "acme", "test.aggregate", "all", exec.Limits{}, compute)
	if err != nil || qr.Source != rescache.SourceComputed || qr.Value == nil {
		t.Fatalf("rerun: source %v, value %v, err %v; want a fresh compute", qr.Source, qr.Value, err)
	}
}

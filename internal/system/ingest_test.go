package system

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gea/internal/atomicio"
	"gea/internal/exec"
	"gea/internal/ingest"
	"gea/internal/obs"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

// newIngestSystem builds a session over an empty append store in a temp
// dir, ready to grow generation by generation.
func newIngestSystem(t *testing.T) (*System, *ingest.Store, string, *obs.Registry) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	retry := ingest.DefaultRetry()
	retry.Sleep = func(time.Duration) {}
	st, corpus, _, err := ingest.Open(atomicio.OS{}, dir, retry)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sys, err := New(corpus, Options{User: "ingest-test",
		Ingest: &IngestOptions{Store: st, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	return sys, st, dir, reg
}

// counterOf / gaugeOf pull one point out of a metrics snapshot.
func counterOf(snap obs.Snapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return -1
}

func gaugeOf(snap obs.Snapshot, name string) int64 {
	for _, g := range snap.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return -1
}

// emitBatches splits the small synthetic corpus for streaming.
func emitBatches(t *testing.T, n int) [][]*sage.Library {
	t.Helper()
	batches, _, err := sagegen.EmitBatches(sagegen.SmallConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	return batches
}

// TestIngestGenerationToken walks the generation token through appends:
// New's build is generation 1, every committed append advances it by one,
// a held view pointer stays on its generation, and the session's Data /
// catalog / lineage all track the swap.
func TestIngestGenerationToken(t *testing.T) {
	sys, st, dir, reg := newIngestSystem(t)
	if g := sys.Generation(); g != 1 {
		t.Fatalf("fresh session at generation %d, want 1", g)
	}
	heldView, heldGen := sys.IngestView()
	if heldView == nil || heldGen != 1 {
		t.Fatalf("IngestView = (%v, %d), want view at generation 1", heldView, heldGen)
	}

	batches := emitBatches(t, 3)
	total := 0
	for i, libs := range batches {
		rep, err := sys.IngestAppend(ingest.BatchFromLibraries(libs))
		if err != nil {
			t.Fatal(err)
		}
		total += len(libs)
		if want := uint64(i + 2); sys.Generation() != want {
			t.Fatalf("after append %d: generation %d, want %d", i+1, sys.Generation(), want)
		}
		if rep.Gen == "" || len(rep.Appended) != len(libs) {
			t.Fatalf("append %d incomplete: %+v", i+1, rep)
		}
		if got := sys.Data.NumLibraries(); got != total {
			t.Fatalf("session dataset holds %d libraries, want %d", got, total)
		}
	}
	// The pointer held across all appends still sees the empty corpus —
	// its generation, frozen.
	if n := heldView.Raw.Libraries; len(n) != 0 {
		t.Errorf("held generation-1 view grew to %d libraries", len(n))
	}

	// The catalog's libraries relation tracks the swap.
	rel, err := sys.Store.Get(TblLibraries)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != total {
		t.Errorf("catalog %s holds %d rows, want %d", TblLibraries, len(rel.Rows), total)
	}
	// Each committed generation records a lineage node.
	if !sys.Lineage.Has(RootDataset + "@gen2") {
		t.Error("no lineage node for generation 2")
	}
	// The durable store reopens onto exactly the view's raw corpus.
	st2, corpus, problems, err := ingest.Open(atomicio.OS{}, dir, ingest.DefaultRetry())
	if err != nil || len(problems) > 0 {
		t.Fatalf("reopen: %v (problems %v)", err, problems)
	}
	view, gen := sys.IngestView()
	if gen != uint64(len(batches)+1) || len(corpus.Libraries) != len(view.Raw.Libraries) {
		t.Errorf("reopened store has %d libraries; session serves %d at generation %d",
			len(corpus.Libraries), len(view.Raw.Libraries), gen)
	}
	if st2.Gen() != st.Gen() {
		t.Errorf("reopened store at %q, session's store at %q", st2.Gen(), st.Gen())
	}

	// Metrics: the counters and the generation gauge moved.
	snap := reg.Snapshot()
	if got := counterOf(snap, "ingest.appends"); got != int64(len(batches)) {
		t.Errorf("ingest.appends = %d, want %d", got, len(batches))
	}
	if got := counterOf(snap, "ingest.libraries"); got != int64(total) {
		t.Errorf("ingest.libraries = %d, want %d", got, total)
	}
	if got := gaugeOf(snap, "ingest.generation"); got != int64(len(batches)+1) {
		t.Errorf("ingest.generation gauge = %d, want %d", got, len(batches)+1)
	}
}

// TestIngestMatchesFrozenLoad: an ingest session grown batch by batch
// from an empty store serves exactly the dataset and cleaning report a
// frozen session builds over the concatenated corpus — the append path
// and the frozen path clean the same way, in the same library order,
// with the same IDs and keep set.
func TestIngestMatchesFrozenLoad(t *testing.T) {
	sys, _, _, _ := newIngestSystem(t)
	batches := emitBatches(t, 3)
	var all []*sage.Library
	for _, libs := range batches {
		if _, err := sys.IngestAppend(ingest.BatchFromLibraries(libs)); err != nil {
			t.Fatal(err)
		}
		all = append(all, libs...)
	}
	frozen, err := New(&sage.Corpus{Libraries: all}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys.Data, frozen.Data) {
		t.Error("ingest session's dataset differs from the frozen load of the same corpus")
	}
	if !reflect.DeepEqual(sys.CleanReport, frozen.CleanReport) {
		t.Error("ingest session's cleaning report differs from the frozen load of the same corpus")
	}
}

// TestIngestRejectedBatchLeavesGenerationAlone: a batch with no valid
// library is quarantined without committing a generation or touching the
// session's corpus.
func TestIngestRejectedBatchLeavesGenerationAlone(t *testing.T) {
	sys, _, _, reg := newIngestSystem(t)
	batches := emitBatches(t, 1)
	if _, err := sys.IngestAppend(ingest.BatchFromLibraries(batches[0])); err != nil {
		t.Fatal(err)
	}
	gen := sys.Generation()

	// Replaying the same batch collides on every name.
	rep, err := sys.IngestAppend(ingest.BatchFromLibraries(batches[0]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gen != "" || len(rep.Appended) != 0 || len(rep.Rejected) != len(batches[0]) {
		t.Fatalf("replayed batch was not fully rejected: %+v", rep)
	}
	if rep.QuarantineDir == "" {
		t.Error("fully rejected batch reported no quarantine dir")
	}
	if sys.Generation() != gen {
		t.Errorf("generation moved from %d to %d on an all-rejected batch", gen, sys.Generation())
	}
	if got := counterOf(reg.Snapshot(), "ingest.quarantined"); got != int64(len(batches[0])) {
		t.Errorf("ingest.quarantined = %d, want %d", got, len(batches[0]))
	}
}

// TestIngestBudgetStopCommitsNothing: when the governed apply runs out of
// budget, the error surfaces and neither the session generation nor the
// durable store moves — the append stays wholesale-retryable.
func TestIngestBudgetStopCommitsNothing(t *testing.T) {
	sys, st, _, _ := newIngestSystem(t)
	batches := emitBatches(t, 1)
	_, _, err := sys.IngestAppendCtx(context.Background(),
		ingest.BatchFromLibraries(batches[0]), exec.Limits{Budget: 3})
	if err == nil {
		t.Fatal("impossible budget did not stop the append")
	}
	if g := sys.Generation(); g != 1 {
		t.Errorf("budget-stopped append advanced the generation to %d", g)
	}
	if st.Gen() != "" {
		t.Errorf("budget-stopped append committed generation %q", st.Gen())
	}
	// The same batch retries wholesale once the pressure clears.
	if _, _, err := sys.IngestAppendCtx(context.Background(),
		ingest.BatchFromLibraries(batches[0]), exec.Limits{}); err != nil {
		t.Fatalf("wholesale retry failed: %v", err)
	}
	if g := sys.Generation(); g != 2 {
		t.Errorf("retried append left generation at %d, want 2", g)
	}
}

// TestIngestDisabledSessions: a session built without Options.Ingest
// refuses appends with a plain error and serves generation 0.
func TestIngestDisabledSession(t *testing.T) {
	res, err := sagegen.Generate(sagegen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(res.Corpus, Options{User: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	if g := sys.Generation(); g != 0 {
		t.Errorf("ingest-disabled session at generation %d, want 0", g)
	}
	if _, err := sys.IngestAppend(ingest.Batch{}); err == nil || !strings.Contains(err.Error(), "ingestion not enabled") {
		t.Errorf("append on a plain session = %v, want 'ingestion not enabled'", err)
	}
}

// TestIngestConcurrentReaders appends batches while reader goroutines
// continuously snapshot the view and mine it. Run under -race this pins
// the locking contract: readers see a frozen generation, appends swap
// pointers without racing them.
func TestIngestConcurrentReaders(t *testing.T) {
	sys, _, _, _ := newIngestSystem(t)
	batches := emitBatches(t, 4)
	if _, err := sys.IngestAppend(ingest.BatchFromLibraries(batches[0])); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				view, gen := sys.IngestView()
				if gen < lastGen {
					t.Errorf("generation token went backwards: %d after %d", gen, lastGen)
					return
				}
				lastGen = gen
				// Read the snapshot's derived state; a torn swap or a
				// mutating build would trip the race detector here.
				if n, reps := view.Data.NumLibraries(), len(view.Report.Libraries); reps != n {
					t.Errorf("generation %d: %d libraries but %d report rows", gen, n, reps)
					return
				}
			}
		}()
	}
	for _, libs := range batches[1:] {
		if _, err := sys.IngestAppend(ingest.BatchFromLibraries(libs)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if want := uint64(len(batches) + 1); sys.Generation() != want {
		t.Fatalf("final generation %d, want %d", sys.Generation(), want)
	}
}

// TestIngestSupersededGenerationIsFreed pins that a generation's dataset
// becomes garbage once the next append swaps it out: nothing process-wide
// may keep superseded generations alive, or a long-running ingest server
// grows by one corpus per append.
func TestIngestSupersededGenerationIsFreed(t *testing.T) {
	sys, _, _, _ := newIngestSystem(t)
	batches := emitBatches(t, 2)
	if _, err := sys.IngestAppend(ingest.BatchFromLibraries(batches[0])); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	watchDataset(sys, freed)
	if _, err := sys.IngestAppend(ingest.BatchFromLibraries(batches[1])); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the superseded generation's dataset is still reachable after the next append")
}

// watchDataset closes freed when the current generation's dataset is
// collected. It is a separate function so no local of the test keeps
// the dataset reachable.
func watchDataset(sys *System, freed chan struct{}) {
	view, _ := sys.IngestView()
	runtime.SetFinalizer(view.Data, func(*sage.Dataset) { close(freed) })
}

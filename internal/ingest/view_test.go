package ingest

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"gea/internal/clean"
	"gea/internal/core"
	"gea/internal/exec"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

// TestViewApplyDoesNotMutateReceiver runs concurrent readers over an old
// view while new generations are built from its raw corpus plus each
// batch — the copy-on-write contract readers rely on. Run under -race
// this also proves the absence of data races between a build and
// readers of the shared structures.
func TestViewApplyDoesNotMutateReceiver(t *testing.T) {
	batches, _, err := sagegen.EmitBatches(sagegen.SmallConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := clean.DefaultOptions()
	old, err := Build(exec.Background(), &sage.Corpus{Libraries: batches[0]}, opts)
	if err != nil {
		t.Fatal(err)
	}
	oldRaw := slices.Clone(old.Raw.Libraries)
	baseline, _, err := core.AggregateWith(exec.Background(), "probe", core.FullEnum("probe", old.Data), core.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A reader holding the old pointer must keep seeing the
				// old generation, byte for byte.
				got, _, err := core.AggregateWith(exec.Background(), "probe", core.FullEnum("probe", old.Data), core.AggregateOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Rows, baseline.Rows) {
					t.Error("reader observed the held view change under it")
					return
				}
			}
		}()
	}

	v := old
	for _, b := range batches[1:] {
		if v, err = Build(exec.Background(), &sage.Corpus{Libraries: slices.Concat(v.Raw.Libraries, b)}, opts); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if v.Data.NumLibraries() <= old.Data.NumLibraries() {
		t.Fatal("builds did not grow the new view")
	}
	if !slices.Equal(old.Raw.Libraries, oldRaw) {
		t.Fatal("old view's raw corpus changed after builds")
	}
	if got, _, err := core.AggregateWith(exec.Background(), "probe", core.FullEnum("probe", old.Data), core.AggregateOptions{}); err != nil || !reflect.DeepEqual(got.Rows, baseline.Rows) {
		t.Fatalf("old view changed after builds (err %v)", err)
	}
}

package ingest

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gea/internal/clean"
	"gea/internal/core"
	"gea/internal/indexsel"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

// emit splits the small synthetic corpus into n append batches and also
// returns the whole corpus they concatenate to.
func emit(t *testing.T, n int) ([][]*sage.Library, *sage.Corpus) {
	t.Helper()
	batches, res, err := sagegen.EmitBatches(sagegen.SmallConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	return batches, res.Corpus
}

// viewsEqual asserts every externally visible surface of two views is
// deeply equal: the dataset, the cleaning report, the SUMY table, the
// entropy ranking and each sorted column index.
func viewsEqual(t *testing.T, label string, got, want *View) {
	t.Helper()
	if !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("%s: datasets differ", label)
	}
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Fatalf("%s: cleaning reports differ", label)
	}
	if !reflect.DeepEqual(got.Sumy, want.Sumy) {
		t.Fatalf("%s: SUMY tables differ", label)
	}
	if !reflect.DeepEqual(got.Ranked, want.Ranked) {
		t.Fatalf("%s: entropy rankings differ", label)
	}
	gc, wc := got.Indexes.Columns(), want.Indexes.Columns()
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: indexed column sets differ: %v vs %v", label, gc, wc)
	}
	for _, c := range wc {
		if !reflect.DeepEqual(got.Indexes.Entries(c), want.Indexes.Entries(c)) {
			t.Fatalf("%s: sorted index for column %d differs", label, c)
		}
	}
}

// TestViewIncrementalEqualsRebuild is the equivalence suite the package
// contract names: at several batch splits, Rebuild over the first batch
// followed by Apply per remaining batch must be bit-identical to one
// Rebuild over the concatenated corpus. reflect.DeepEqual on float64
// fields is exact equality — any reordered float addition would fail it.
func TestViewIncrementalEqualsRebuild(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		batches, corpus := emit(t, n)
		full, err := Rebuild(corpus, ViewOptions{})
		if err != nil {
			t.Fatal(err)
		}
		inc, err := Rebuild(&sage.Corpus{Libraries: batches[0]}, ViewOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[1:] {
			if inc, err = inc.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		viewsEqual(t, fmt.Sprintf("split %d", n), inc, full)
	}
}

// TestViewMatchesOperators pins the maintained state to the real
// operators it mirrors: the SUMY rows must exactly equal core.Aggregate
// over the full enum, and the ranking must exactly equal
// indexsel.RankByEntropy, including after incremental maintenance.
func TestViewMatchesOperators(t *testing.T) {
	batches, corpus := emit(t, 3)
	v, err := Rebuild(&sage.Corpus{Libraries: batches[0]}, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[1:] {
		if v, err = v.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := v.Data.NumLibraries(), len(corpus.Libraries); got != want {
		t.Fatalf("view holds %d libraries, corpus has %d", got, want)
	}

	sumy, err := core.Aggregate("SAGE", core.FullEnum("full", v.Data), core.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Sumy.Rows, sumy.Rows) {
		t.Error("maintained SUMY rows differ from core.Aggregate over the same dataset")
	}
	if !reflect.DeepEqual(v.Ranked, indexsel.RankByEntropy(v.Data)) {
		t.Error("maintained ranking differs from indexsel.RankByEntropy over the same dataset")
	}

	// The sorted indexes must equal core.BuildTagIndexes over the same
	// top-entropy columns.
	cols := v.Indexes.Columns()
	want, err := core.BuildTagIndexes(v.Data, cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cols {
		if !reflect.DeepEqual(v.Indexes.Entries(c), want.Entries(c)) {
			t.Fatalf("sorted index for column %d differs from core.BuildTagIndexes", c)
		}
	}
}

// TestViewApplyDoesNotMutateReceiver runs concurrent readers over an old
// view while Apply derives new generations from it — the copy-on-write
// contract readers rely on. Run under -race this also proves the absence
// of data races between Apply and readers of the shared structures.
func TestViewApplyDoesNotMutateReceiver(t *testing.T) {
	batches, _ := emit(t, 4)
	old, err := Rebuild(&sage.Corpus{Libraries: batches[0]}, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := core.Aggregate("probe", core.FullEnum("probe", old.Data), core.AggregateOptions{})
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
				got, err := core.Aggregate("probe", core.FullEnum("probe", old.Data), core.AggregateOptions{})
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
		if v, err = v.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if v.Data.NumLibraries() <= old.Data.NumLibraries() {
		t.Fatal("applies did not grow the new view")
	}
	if got, err := core.Aggregate("probe", core.FullEnum("probe", old.Data), core.AggregateOptions{}); err != nil || !reflect.DeepEqual(got.Rows, baseline.Rows) {
		t.Fatalf("old view changed after applies (err %v)", err)
	}
}

// TestViewOptionsValidate pins the options normalization: negative
// tolerance is an error, IndexTags defaults, negative IndexTags disables
// indexing.
func TestViewOptionsValidate(t *testing.T) {
	if _, err := Rebuild(&sage.Corpus{}, ViewOptions{Clean: clean.Options{MinTolerance: -1, ScaleTo: 1}}); err == nil {
		t.Error("negative MinTolerance accepted")
	}
	batches, _ := emit(t, 1)
	v, err := Rebuild(&sage.Corpus{Libraries: batches[0]}, ViewOptions{IndexTags: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n := v.Indexes.NumIndexes(); n != 0 {
		t.Errorf("IndexTags -1 still built %d indexes", n)
	}
}

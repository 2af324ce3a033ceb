package system

import (
	"path/filepath"
	"reflect"
	"testing"

	"gea/internal/core"
	"gea/internal/sage"
)

// TestSessionSaveLoadRoundTrip runs the case-study-1 pipeline, saves the
// session, reloads it, and checks every object class survived.
func TestSessionSaveLoadRoundTrip(t *testing.T) {
	sys, res := newSystem(t)
	groups, pure := runBrainPipeline(t, sys)
	if _, err := sys.CreateGap("rtGap", groups.InFascicle, groups.Opposite); err != nil {
		t.Fatal(err)
	}
	top, err := sys.CalculateTopGap("rtGap", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Lineage.SetComment(pure, "persist me"); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "session")
	if err := sys.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSession(dir, res.Catalog, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Data survives with the same dimensions.
	if got.Data.NumLibraries() != sys.Data.NumLibraries() || got.Data.NumTags() != sys.Data.NumTags() {
		t.Fatalf("data dims changed: %dx%d vs %dx%d",
			got.Data.NumLibraries(), got.Data.NumTags(), sys.Data.NumLibraries(), sys.Data.NumTags())
	}
	// Datasets.
	brain, err := got.Dataset("brain")
	if err != nil {
		t.Fatal(err)
	}
	origBrain, _ := sys.Dataset("brain")
	if brain.NumLibraries() != origBrain.NumLibraries() {
		t.Error("brain dataset changed size")
	}
	// SUMY tables: values equal.
	sm, err := got.Sumy(groups.InFascicle)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := sys.Sumy(groups.InFascicle)
	if sm.Len() != orig.Len() {
		t.Fatalf("sumy rows %d vs %d", sm.Len(), orig.Len())
	}
	for i := range orig.Rows {
		a, b := orig.Rows[i], sm.Rows[i]
		if a.Tag != b.Tag || a.Mean != b.Mean || a.Std != b.Std || a.Range != b.Range {
			t.Fatalf("sumy row %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	// Gap tables (including the top-gap).
	g, err := got.Gap("rtGap")
	if err != nil {
		t.Fatal(err)
	}
	origGap, _ := sys.Gap("rtGap")
	if g.Len() != origGap.Len() {
		t.Error("gap length changed")
	}
	gotTop, err := got.Gap(top.Name)
	if err != nil {
		t.Fatal(err)
	}
	if gotTop.Len() != top.Len() {
		t.Error("top gap changed")
	}
	// Restored tables are DeepEqual to the originals — a tag-ordered GAP
	// stays unindexed, a display-ordered top-gap keeps its order and
	// index — and Row agrees for every tag.
	if !reflect.DeepEqual(sm, orig) {
		t.Errorf("restored SUMY %s is not DeepEqual to the original", orig.Name)
	}
	for _, r := range orig.Rows {
		if row, ok := sm.Row(r.Tag); !ok || !reflect.DeepEqual(row, r) {
			t.Fatalf("restored SUMY row for %v = %+v, %v; want %+v", r.Tag, row, ok, r)
		}
	}
	for _, pair := range [][2]*core.Gap{{g, origGap}, {gotTop, top}} {
		restored, original := pair[0], pair[1]
		if !reflect.DeepEqual(restored, original) {
			t.Errorf("restored GAP %s is not DeepEqual to the original", original.Name)
		}
		for _, r := range original.Rows {
			if row, ok := restored.Row(r.Tag); !ok || !reflect.DeepEqual(row, r) {
				t.Fatalf("restored GAP %s row for %v = %+v, %v; want %+v", original.Name, r.Tag, row, ok, r)
			}
		}
	}
	// Fascicles with their mined structure.
	fas, err := got.Fascicle(pure)
	if err != nil {
		t.Fatal(err)
	}
	origFas, _ := sys.Fascicle(pure)
	if fas.Fascicle.Size() != origFas.Fascicle.Size() ||
		fas.Fascicle.NumCompact() != origFas.Fascicle.NumCompact() {
		t.Error("fascicle structure changed")
	}
	// Lineage with comments.
	node, err := got.Lineage.Get(pure)
	if err != nil {
		t.Fatal(err)
	}
	if node.Comment != "persist me" {
		t.Error("lineage comment lost")
	}
	// Catalog relations.
	libs, err := got.Store.Get(TblLibraries)
	if err != nil {
		t.Fatal(err)
	}
	if libs.Len() != got.Data.NumLibraries() {
		t.Error("Libraries relation changed")
	}
	// GeneDB rebuilt.
	if got.GeneDB == nil {
		t.Error("genedb not rebuilt")
	}
	// Clean report summary survives.
	if got.CleanReport == nil || got.CleanReport.UniqueTagsAfter != sys.CleanReport.UniqueTagsAfter {
		t.Error("clean report summary lost")
	}
	// The restored session keeps working: derive a new gap from restored
	// SUMY tables.
	if _, err := got.CreateGap("afterReload", groups.InFascicle, groups.SameNotInFascicle); err != nil {
		t.Fatalf("restored session cannot continue the analysis: %v", err)
	}
	// FindPureFascicle cache survives.
	again, err := got.FindPureFascicle("brain", sage.PropCancer, 3)
	if err != nil {
		t.Fatal(err)
	}
	if again != pure {
		t.Errorf("FindPureFascicle after reload = %q, want cached %q", again, pure)
	}
}

func TestLoadSessionMissingDir(t *testing.T) {
	if _, err := LoadSession("/nonexistent/session", nil, 0); err == nil {
		t.Error("LoadSession(missing): expected error")
	}
}

func TestLoadSessionWithoutCatalog(t *testing.T) {
	sys, _ := newSystem(t)
	dir := filepath.Join(t.TempDir(), "s")
	if err := sys.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSession(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.GeneDB != nil {
		t.Error("genedb built without catalog")
	}
}

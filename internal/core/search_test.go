package core

import (
	"testing"

	"gea/internal/exec"
	"gea/internal/interval"
	"gea/internal/sage"
)

func TestRangeSearchFigure416(t *testing.T) {
	// Two SUMY tables; tag A exists in both, tag C only in the first. The
	// search asks which tag ranges (broadly) overlap [10, 700], reported as
	// OK/NO/NE cells as in Figure 4.16.
	a := sage.MustParseTag("AAACATATTA")
	c := sage.MustParseTag("AAACATCCTA")
	s1 := NewSumy("brain25k_3NormalTable", []SumyRow{
		{Tag: a, Range: interval.New(0, 5), Mean: 2, Std: 1},
		{Tag: c, Range: interval.New(20, 616), Mean: 100, Std: 50},
	}, nil)
	s2 := NewSumy("brain25k_3CancerFasTbl", []SumyRow{
		{Tag: a, Range: interval.New(15, 900), Mean: 200, Std: 80},
	}, nil)

	rows, _, err := RangeSearchWith(exec.Background(), []*Sumy{s1, s2}, a, c, BroadOverlap(interval.New(10, 700)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Row for tag a: NO in s1 (range [0,5] is before [10,700]), OK in s2
	// ([15,900] strictly overlaps... [15,900] vs [10,700]: 15>10, so it's
	// overlapped-by, not overlaps). Checking with the relation that holds.
	byTag := map[sage.TagID]RangeSearchRow{}
	for _, r := range rows {
		byTag[r.Tag] = r
	}
	ra := byTag[a]
	if ra.Cells[0].Outcome != RangeNo {
		t.Errorf("tag a in s1 = %v, want NO ([0,5] is before [10,700])", ra.Cells[0].Outcome)
	}
	if ra.Cells[1].Outcome != RangeSatisfied {
		t.Errorf("tag a in s2 = %v, want OK", ra.Cells[1].Outcome)
	}
	rc := byTag[c]
	if rc.Cells[0].Outcome != RangeSatisfied {
		t.Errorf("tag c in s1 = %v, want OK ([20,616] broadly overlaps [10,700])", rc.Cells[0].Outcome)
	}
	if rc.Cells[1].Outcome != RangeNotExist {
		t.Errorf("tag c in s2 = %v, want NE", rc.Cells[1].Outcome)
	}
	if rc.Cells[0].Range != interval.New(20, 616) {
		t.Errorf("satisfied range = %v", rc.Cells[0].Range)
	}
}

func TestRangeSearchErrors(t *testing.T) {
	s := NewSumy("s", nil, nil)
	if _, _, err := RangeSearchWith(exec.Background(), nil, 0, 1, BroadOverlap(interval.New(0, 1))); err == nil {
		t.Error("no sumys: expected error")
	}
	if _, _, err := RangeSearchWith(exec.Background(), []*Sumy{s}, 5, 1, BroadOverlap(interval.New(0, 1))); err == nil {
		t.Error("inverted tag range: expected error")
	}
}

func TestAnyTagSearch(t *testing.T) {
	d := smallDataset()
	s, _, err := AggregateWith(exec.Background(), "s", FullEnum("SAGE", d), AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4.17: all tags whose range includes [5, 60].
	hits := AnyTagSearch(s, StrictRelation(interval.Includes, interval.New(5, 60)))
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	for _, r := range hits {
		if !(r.Range.Min < 5 && r.Range.Max > 60) {
			t.Errorf("tag %v range %v does not include [5,60]", r.Tag, r.Range)
		}
	}
}

func TestFrequencySearch(t *testing.T) {
	d := smallDataset()
	first := sage.MustParseTag("AAAAAAAAAA")
	last := sage.MustParseTag("GGGGGGGGGG")
	res, names, err := FrequencySearch(d, first, last, []string{"BC1", "BN1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "BC1" {
		t.Errorf("names = %v", names)
	}
	if len(res) != 3 { // A, C, G tags within range; T outside
		t.Fatalf("got %d tags", len(res))
	}
	if res[0].Tag != first || res[0].Values[0] != 200 || res[0].Values[1] != 50 {
		t.Errorf("row 0 = %+v", res[0])
	}
	// All libraries when names nil.
	all, names, err := FrequencySearch(d, first, first, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 || len(all) != 1 || len(all[0].Values) != 6 {
		t.Errorf("all-library search = %v, %v", all, names)
	}
	if _, _, err := FrequencySearch(d, last, first, nil); err == nil {
		t.Error("inverted range: expected error")
	}
	if _, _, err := FrequencySearch(d, first, last, []string{"nope"}); err == nil {
		t.Error("unknown library: expected error")
	}
}

func TestSingleTagSearch(t *testing.T) {
	d := smallDataset()
	res, names, err := SingleTagSearch(d, sage.MustParseTag("TTTTTTTTTT"), []string{"K1", "BC1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || res.Values[0] != 400 || res.Values[1] != 0 {
		t.Errorf("single tag = %+v / %v", res, names)
	}
	if _, _, err := SingleTagSearch(d, sage.MustParseTag("ACACACACAC"), nil); err == nil {
		t.Error("absent tag: expected error")
	}
}

func TestRangeOutcomeString(t *testing.T) {
	if RangeSatisfied.String() != "OK" || RangeNo.String() != "NO" || RangeNotExist.String() != "NE" {
		t.Error("outcome strings wrong")
	}
}

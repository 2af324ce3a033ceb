package gea_test

import (
	"fmt"

	"gea"
)

// ExampleDiff reproduces the worked example of thesis Figure 3.5: the GAP
// table between two SUMY tables over their common tags, with the NULL
// overlap case.
func ExampleDiff() {
	tag := func(n int) gea.TagID { return gea.TagID(n) }
	s1 := gea.NewSumy("SUMY1", []gea.SumyRow{
		{Tag: tag(1), Range: gea.NewInterval(5, 5), Mean: 5, Std: 0},
		{Tag: tag(2), Range: gea.NewInterval(0, 7), Mean: 3, Std: 1},
		{Tag: tag(3), Range: gea.NewInterval(10, 120), Mean: 70, Std: 15},
		{Tag: tag(4), Range: gea.NewInterval(0, 20), Mean: 10, Std: 4},
	}, nil)
	s2 := gea.NewSumy("SUMY2", []gea.SumyRow{
		{Tag: tag(1), Range: gea.NewInterval(0, 14), Mean: 7, Std: 1},
		{Tag: tag(3), Range: gea.NewInterval(10, 130), Mean: 60, Std: 25},
		{Tag: tag(4), Range: gea.NewInterval(0, 12), Mean: 3, Std: 1},
		{Tag: tag(5), Range: gea.NewInterval(0, 50), Mean: 20, Std: 15},
	}, nil)
	g, _, err := gea.Diff(gea.Background(), "GAP", s1, s2)
	if err != nil {
		panic(err)
	}
	for _, r := range g.Rows {
		fmt.Printf("Tag%d gap=%s\n", int(r.Tag), r.Values[0])
	}
	// Output:
	// Tag1 gap=-1.00
	// Tag3 gap=NULL
	// Tag4 gap=2.00
}

// ExampleIndicesRequired reproduces the first row of thesis Table 3.1.
func ExampleIndicesRequired() {
	m, err := gea.IndicesRequired(60000, 25000, 1, gea.DefaultConfidence)
	if err != nil {
		panic(err)
	}
	fmt.Printf("indexes for a 99.9%% chance of 1 hit: %d\n", m)
	// Output:
	// indexes for a 99.9% chance of 1 hit: 17
}

// ExampleClassifyIntervals shows Allen's thirteen relations (Table 4.1) and
// their composition.
func ExampleClassifyIntervals() {
	a := gea.NewInterval(0, 5)
	b := gea.NewInterval(3, 9)
	fmt.Println(gea.ClassifyIntervals(a, b))
	fmt.Println(gea.ComposeRelations(gea.Overlaps, gea.Overlaps))
	// Output:
	// overlaps
	// {b,m,o}
}

// ExampleMinusGap reproduces Figure 3.6c: the tag-level set minus of two
// GAP tables.
func ExampleMinusGap() {
	tag := func(n int) gea.TagID { return gea.TagID(n) }
	g1, _ := gea.NewGap("GAP1", []string{"gap"}, []gea.GapRow{
		{Tag: tag(1), Values: []gea.GapValue{{V: -11}}},
		{Tag: tag(2), Values: []gea.GapValue{{V: 2}}},
		{Tag: tag(3), Values: []gea.GapValue{gea.NullGap}},
		{Tag: tag(4), Values: []gea.GapValue{{V: 5}}},
	})
	g2, _ := gea.NewGap("GAP2", []string{"gap"}, []gea.GapRow{
		{Tag: tag(1), Values: []gea.GapValue{{V: -8}}},
		{Tag: tag(3), Values: []gea.GapValue{{V: 9}}},
		{Tag: tag(4), Values: []gea.GapValue{{V: 10}}},
		{Tag: tag(5), Values: []gea.GapValue{{V: 11}}},
	})
	g3, err := gea.MinusGap("GAP3", g1, g2)
	if err != nil {
		panic(err)
	}
	for _, r := range g3.Rows {
		fmt.Printf("Tag%d gap=%s\n", int(r.Tag), r.Values[0])
	}
	// Output:
	// Tag2 gap=2.00
}

// ExampleParseTag shows the 10-bp SAGE tag codec.
func ExampleParseTag() {
	id, err := gea.ParseTag("CCTTGAGTAC")
	if err != nil {
		panic(err)
	}
	fmt.Println(id.String())
	// Output:
	// CCTTGAGTAC
}

// ExampleAudicClaverieP shows the xProfiler significance test on SAGE
// counts.
func ExampleAudicClaverieP() {
	// 30 counts in a pool of 10,000 vs 2 in a pool of 10,000.
	p := gea.AudicClaverieP(30, 2, 10000, 10000)
	fmt.Printf("significant: %v\n", p < 0.01)
	// Output:
	// significant: true
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"gea"
)

// ---------------------------------------------------------------- table 2.2

// expTable22 reruns the Section 2.5.1 worked example: the Table 2.2 fragment
// with the printed tolerance vector yields a 3-library, 5-D fascicle.
func expTable22(*env) error {
	tags := []string{"AAAAAAAAAA", "AAAAAAAAAC", "AAAAAAAAAT", "AAAAAACTCC", "AAAAAGAAAA"}
	data := []struct {
		name string
		vals []float64
	}{
		{"SAGE_BB542_whitematter", []float64{1843, 3, 10, 15, 11}},
		{"SAGE_Duke_1273", []float64{1418, 7, 0, 30, 12}},
		{"SAGE_Duke_757", []float64{1251, 18, 0, 33, 20}},
		{"SAGE_Duke_cerebellum", []float64{1800, 0, 58, 40, 20}},
		{"SAGE_Duke_GBM_H1110", []float64{1050, 25, 1, 60, 15}},
		{"SAGE_Duke_H1020", []float64{1910, 1, 17, 74, 30}},
		{"SAGE_95_259", []float64{503, 8, 0, 0, 456}},
		{"SAGE_95_260", []float64{364, 7, 7, 7, 222}},
		{"SAGE_Br_N", []float64{65, 5, 79, 9, 300}},
		{"SAGE_DCIS", []float64{847, 4, 124, 0, 500}},
	}
	c := &gea.Corpus{}
	tagIDs := make([]gea.TagID, len(tags))
	for j, s := range tags {
		tagIDs[j] = gea.MustParseTag(s)
	}
	for i, row := range data {
		l := &gea.Library{Meta: gea.LibraryMeta{ID: i + 1, Name: row.name, Tissue: "brain"},
			Counts: map[gea.TagID]float64{}}
		for j, v := range row.vals {
			if v != 0 {
				l.Counts[tagIDs[j]] = v
			}
		}
		c.Libraries = append(c.Libraries, l)
	}
	d := gea.BuildDatasetWithTags(c, tagIDs)
	// The thesis prints tolerance 47 for AAAAAAAAAT, but its own example
	// libraries span width 48 on that tag; 48 realizes the intended result.
	tol := map[gea.TagID]float64{
		tagIDs[0]: 120, tagIDs[1]: 3, tagIDs[2]: 48, tagIDs[3]: 60, tagIDs[4]: 20,
	}
	fs, _, err := gea.MineFasciclesLattice(gea.Background(), d, gea.FascicleParams{K: 5, Tolerance: tol, MinSize: 3})
	if err != nil {
		return err
	}
	fmt.Printf("paper: {BB542_whitematter, Duke_cerebellum, Duke_H1020} form a 5-D fascicle\n")
	rule()
	for _, f := range fs {
		fmt.Printf("measured: fascicle size=%d compact=%d members=%v\n",
			f.Size(), f.NumCompact(), f.LibraryNames(d))
		for i, col := range f.CompactCols {
			fmt.Printf("  %s range [%g, %g]\n", d.Tags[col], f.Min[i], f.Max[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------- table 3.1

func expTable31(*env) error {
	paper := []int{17, 23, 27, 32, 36, 40, 44, 48, 51, 55}
	rows, err := gea.Table31(60000, 25000, 10, gea.DefaultConfidence)
	if err != nil {
		return err
	}
	fmt.Println("n=60000 total tags, p=25000 SUMY tags, confidence 99.9%")
	fmt.Println("w (at least) | m paper | m measured | match")
	rule()
	for i, r := range rows {
		match := "yes"
		if r.M != paper[i] {
			match = "NO"
		}
		fmt.Printf("%12d | %7d | %10d | %s\n", r.W, paper[i], r.M, match)
	}
	return nil
}

// ---------------------------------------------------------------- table 3.2

// expTable32 measures populate() time saving as a function of the number of
// index hits w, holding the query fixed: a SUMY over p tags evaluated
// against the cleaned dataset, with w indexed tags drawn from the SUMY (as
// the entropy heuristic would achieve with the Table 3.1 budget).
func expTable32(e *env) error {
	sys, err := e.sys()
	if err != nil {
		return err
	}
	d := sys.Data
	// SUMY over roughly p = 40% of tags: a cancer cluster's definition.
	rows := d.RowsWhere(func(m gea.LibraryMeta) bool { return m.State == gea.Cancer })
	if len(rows) > 6 {
		rows = rows[:6]
	}
	p := d.NumTags() * 2 / 5
	cols := make([]int, p)
	for j := range cols {
		cols[j] = j
	}
	enum, err := gea.NewEnum("cluster", d, rows, cols)
	if err != nil {
		return err
	}
	sumy, _, err := gea.Aggregate(gea.Background(), "clusterSumy", enum, gea.AggregateOptions{})
	if err != nil {
		return err
	}
	// Entropy-ranked tags *within the SUMY* simulate w hits exactly.
	ranked := gea.RankByEntropy(d)
	var inSumy []int
	for _, rt := range ranked {
		if _, ok := sumy.Row(rt.Tag); ok {
			inSumy = append(inSumy, rt.Col)
		}
		if len(inSumy) >= 10 {
			break
		}
	}
	// Calibrate reps so each timing sample runs for a meaningful duration,
	// warm up, then take the median of several samples per configuration.
	// The w=0 configuration is the sequential baseline.
	reps := 1
	for {
		if d := timePopulate(sumy, d, nil, reps); d > 60*time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 4
	}
	timePopulate(sumy, d, nil, reps) // warm-up
	var baseline time.Duration
	paper := map[int]int{0: 0, 1: 45, 2: 76, 3: 78, 4: 85, 5: 85, 6: 85, 7: 85, 8: 90, 9: 90, 10: 90}
	fmt.Printf("p=%d SUMY tags over %d libraries x %d tags; %d reps per sample\n",
		sumy.Len(), d.NumLibraries(), d.NumTags(), reps)
	fmt.Println("w hit | paper saved% | time saved% | rows-examined saved% | candidate rows")
	rule()
	for w := 0; w <= 10 && w <= len(inSumy); w++ {
		var idx *gea.TagIndexes
		if w > 0 {
			var err error
			idx, err = gea.BuildTagIndexes(d, inSumy[:w])
			if err != nil {
				return err
			}
		}
		t := medianTime(func() time.Duration { return timePopulate(sumy, d, idx, reps) })
		if w == 0 {
			baseline = t
		}
		_, st, _, err := gea.Populate(gea.Background(), "probe", sumy, d, idx, gea.PopulateOptions{})
		if err != nil {
			return err
		}
		saved := 100 * (1 - float64(t)/float64(baseline))
		workSaved := 100 * (1 - float64(st.CandidateRows)/float64(d.NumLibraries()))
		fmt.Printf("%5d | %12d | %11.0f | %20.0f | %d\n",
			w, paper[w], saved, workSaved, st.CandidateRows)
	}
	return nil
}

// timePopulate times populate() with simulated row fetches — the
// disk-resident evaluation model of the thesis's Table 3.2 (see
// PopulateOptions.SimulateRowFetch).
func timePopulate(s *gea.Sumy, d *gea.Dataset, idx *gea.TagIndexes, reps int) time.Duration {
	opts := gea.PopulateOptions{SimulateRowFetch: true}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, _, _, err := gea.Populate(gea.Background(), "bench", s, d, idx, opts); err != nil {
			panic(err)
		}
	}
	return time.Since(start)
}

// medianTime takes seven samples and returns the median.
func medianTime(sample func() time.Duration) time.Duration {
	ds := make([]time.Duration, 7)
	for i := range ds {
		ds[i] = sample()
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2]
}

// ---------------------------------------------------------------- table 4.1

// expTable41 prints Allen's thirteen basic interval relations (thesis Table
// 4.1) with a witness pair for each, verified by Classify.
func expTable41(*env) error {
	witnesses := []struct {
		rel  gea.Relation
		a, b gea.Interval
	}{
		{gea.Before, gea.NewInterval(0, 2), gea.NewInterval(5, 9)},
		{gea.After, gea.NewInterval(5, 9), gea.NewInterval(0, 2)},
		{gea.Meets, gea.NewInterval(0, 3), gea.NewInterval(3, 9)},
		{gea.MetBy, gea.NewInterval(3, 9), gea.NewInterval(0, 3)},
		{gea.Overlaps, gea.NewInterval(0, 5), gea.NewInterval(3, 9)},
		{gea.OverlappedBy, gea.NewInterval(3, 9), gea.NewInterval(0, 5)},
		{gea.During, gea.NewInterval(3, 5), gea.NewInterval(0, 9)},
		{gea.Includes, gea.NewInterval(0, 9), gea.NewInterval(3, 5)},
		{gea.Starts, gea.NewInterval(0, 4), gea.NewInterval(0, 9)},
		{gea.StartedBy, gea.NewInterval(0, 9), gea.NewInterval(0, 4)},
		{gea.Finishes, gea.NewInterval(5, 9), gea.NewInterval(0, 9)},
		{gea.FinishedBy, gea.NewInterval(0, 9), gea.NewInterval(5, 9)},
		{gea.Equals, gea.NewInterval(2, 7), gea.NewInterval(2, 7)},
	}
	fmt.Println("relation       sym  A          B          verified")
	rule()
	for _, w := range witnesses {
		ok := gea.ClassifyIntervals(w.a, w.b) == w.rel
		fmt.Printf("%-14s %-4s %-10s %-10s %v\n", w.rel, w.rel.Symbol(), w.a, w.b, ok)
		if !ok {
			return fmt.Errorf("relation %v not verified", w.rel)
		}
	}
	fmt.Println("composition example: o;o =", gea.ComposeRelations(gea.Overlaps, gea.Overlaps))
	return nil
}

// ----------------------------------------------------------------- cleaning

func expCleaning(e *env) error {
	corpus := e.res.Corpus
	fmt.Printf("raw unique tags: %d (paper: ~350,000 at full scale)\n", corpus.TotalUniqueTags())
	fmt.Printf("singleton fraction: %.2f (paper: >0.80 at full scale)\n", gea.SingletonFraction(corpus))
	cleaned, rep, err := gea.Clean(corpus, gea.DefaultCleanOptions())
	if err != nil {
		return err
	}
	fmt.Printf("cleaned unique tags: %d (%.1f%% removed; paper: ~83%% — 350k -> 60k)\n",
		rep.UniqueTagsAfter, 100*rep.RemovedTagFraction())
	lo, hi := 1.0, 0.0
	for _, lr := range rep.Libraries {
		if lr.RemovedFraction < lo {
			lo = lr.RemovedFraction
		}
		if lr.RemovedFraction > hi {
			hi = lr.RemovedFraction
		}
	}
	fmt.Printf("per-library total-count removal: %.1f%% .. %.1f%% (paper: 5%%-15%%)\n", 100*lo, 100*hi)
	fmt.Printf("normalized totals: every library at %.0f (paper: 300,000 mRNAs/cell)\n",
		cleaned.Libraries[0].Total())
	return nil
}

// ------------------------------------------------------------- fig 4.x

// brainPipeline mines brain and returns (system, dataset, in-fascicle set,
// case groups). The search result is memoized, so a search stopped by the
// -deadline runs again on the next call.
func brainPipeline(e *env) (*gea.System, *gea.Dataset, map[string]bool, gea.CaseGroups, error) {
	sys, err := e.sys()
	if err != nil {
		return nil, nil, nil, gea.CaseGroups{}, err
	}
	const dsName = "brain"
	brain, err := sys.Dataset(dsName)
	if err != nil {
		if brain, err = sys.CreateTissueDataset(dsName); err != nil {
			return nil, nil, nil, gea.CaseGroups{}, err
		}
		if err := sys.GenerateMetadata(dsName, 10); err != nil {
			return nil, nil, nil, gea.CaseGroups{}, err
		}
	}
	if e.brainPure == "" {
		alg := gea.LatticeAlgorithm
		if e.full {
			alg = gea.GreedyAlgorithm
		}
		ctx, cancel := e.opCtx()
		pure, tr, err := sys.FindPureFascicleCtx(ctx, dsName, gea.PropCancer, 3, alg, gea.ExecLimits{})
		cancel()
		if err != nil {
			return nil, nil, nil, gea.CaseGroups{}, err
		}
		e.noteTrace(tr)
		groups, err := sys.FormSUM(pure, dsName)
		if err != nil {
			return nil, nil, nil, gea.CaseGroups{}, err
		}
		e.brainPure, e.brainGroups = pure, groups
	}
	fas, err := sys.Fascicle(e.brainPure)
	if err != nil {
		return nil, nil, nil, gea.CaseGroups{}, err
	}
	inFas := map[string]bool{}
	for _, n := range fas.Fascicle.LibraryNames(brain) {
		inFas[n] = true
	}
	return sys, brain, inFas, e.brainGroups, nil
}

func figMarker(gene string) func(*env) error {
	return func(e *env) error {
		sys, brain, inFas, _, err := brainPipeline(e)
		if err != nil {
			return err
		}
		g, ok := e.res.Catalog.ByName(gene)
		if !ok {
			return fmt.Errorf("marker %q missing from catalog", gene)
		}
		fr, names, err := gea.SingleTagSearch(brain, g.Tag, nil)
		if err != nil {
			return err
		}
		type group struct {
			label string
			sum   float64
			n     int
		}
		groups := []*group{
			{label: "cancer in fascicle"},
			{label: "cancer not in fascicle"},
			{label: "normal"},
		}
		for i, name := range names {
			m, err := sys.LibraryInfo(name)
			if err != nil {
				return err
			}
			var gidx int
			switch {
			case m.State == gea.Cancer && inFas[name]:
				gidx = 0
			case m.State == gea.Cancer:
				gidx = 1
			default:
				gidx = 2
			}
			groups[gidx].sum += fr.Values[i]
			groups[gidx].n++
		}
		switch gene {
		case gea.GeneRibosomalL12:
			fmt.Println("paper (Fig 4.2): fascicle avg ~275 vs normal ~100 (ratio 2.75, positive gap)")
		case gea.GeneAlphaTubulin:
			fmt.Println("paper (Fig 4.3): fascicle ~0 vs normal ~90 (negative gap)")
		default:
			fmt.Println("paper (Fig 4.11): inside-fascicle far below outside (avg ~11 inside)")
		}
		rule()
		var avgs [3]float64
		for i, grp := range groups {
			if grp.n > 0 {
				avgs[i] = grp.sum / float64(grp.n)
			}
			fmt.Printf("measured %-24s avg %10.1f over %d libraries\n", grp.label, avgs[i], grp.n)
		}
		switch gene {
		case gea.GeneRibosomalL12:
			fmt.Printf("shape: fascicle/normal ratio = %.2f (paper 2.75)\n", avgs[0]/avgs[2])
		case gea.GeneAlphaTubulin:
			fmt.Printf("shape: fascicle/normal ratio = %.2f (paper ~0)\n", avgs[0]/avgs[2])
		default:
			fmt.Printf("shape: inside/outside ratio = %.2f (paper << 1)\n", avgs[0]/avgs[1])
		}
		return nil
	}
}

// ------------------------------------------------------------- cases 3-5

// tissueGap builds a cancer-in-fascicle vs normal gap for a tissue,
// scanning k from strict to loose (the thesis's per-tissue CDInfo
// threshold).
func tissueGap(e *env, tissue string) (string, error) {
	sys, err := e.sys()
	if err != nil {
		return "", err
	}
	gapName := tissue + "_canvsnor_gap"
	if _, err := sys.Gap(gapName); err == nil {
		return gapName, nil
	}
	d, err := sys.Dataset(tissue)
	if err != nil {
		if d, err = sys.CreateTissueDataset(tissue); err != nil {
			return "", err
		}
		if err := sys.GenerateMetadata(tissue, 10); err != nil {
			return "", err
		}
	}
	_ = d
	alg := gea.LatticeAlgorithm
	if e.full {
		alg = gea.GreedyAlgorithm
	}
	ctx, cancel := e.opCtx()
	pure, tr, err := sys.FindPureFascicleCtx(ctx, tissue, gea.PropCancer, 3, alg, gea.ExecLimits{})
	cancel()
	if err != nil {
		return "", err
	}
	e.noteTrace(tr)
	groups, err := sys.FormSUM(pure, tissue)
	if err != nil {
		return "", err
	}
	if _, err := sys.CreateGap(gapName, groups.InFascicle, groups.Opposite); err != nil {
		return "", err
	}
	return gapName, nil
}

func expCase3(e *env) error {
	sys, err := e.sys()
	if err != nil {
		return err
	}
	g1, err := tissueGap(e, "brain")
	if err != nil {
		return err
	}
	g2, err := tissueGap(e, "breast")
	if err != nil {
		return err
	}
	inter, err := sys.CompareGaps("case3_intersect", g1, g2, gea.OpIntersect)
	if err != nil {
		return err
	}
	lower, err := gea.ApplyQuery("case3_lower", inter, gea.QLowerInABoth)
	if err != nil {
		return err
	}
	higher, err := gea.ApplyQuery("case3_higher", inter, gea.QHigherInABoth)
	if err != nil {
		return err
	}
	fmt.Println("paper: intersection of negative-gap tags across tissues yields shared")
	fmt.Println("       cancer-responsive genes (possible drug targets)")
	rule()
	fmt.Printf("measured: %d tags always LOWER in cancer in both tissues\n", lower.Len())
	printPlanted(e, lower, "  ")
	fmt.Printf("measured: %d tags always HIGHER in cancer in both tissues\n", higher.Len())
	printPlanted(e, higher, "  ")
	// Ground-truth recall: how many planted pan-cancer genes were recovered.
	pan := map[gea.TagID]bool{}
	for _, g := range e.res.Catalog.Genes {
		if g.Tissue == "" && (g.Role.String() == "cancer-up" || g.Role.String() == "cancer-down") {
			pan[g.Tag] = true
		}
	}
	hit := 0
	for _, r := range append(append([]gea.GapRow{}, lower.Rows...), higher.Rows...) {
		if pan[r.Tag] {
			hit++
		}
	}
	fmt.Printf("ground truth: %d of %d recovered tags are planted pan-cancer genes\n",
		hit, lower.Len()+higher.Len())
	return nil
}

func printPlanted(e *env, g *gea.Gap, indent string) {
	max := 8
	for i, r := range g.Rows {
		if i >= max {
			fmt.Printf("%s... and %d more\n", indent, g.Len()-max)
			return
		}
		gene := "(error tag)"
		if gg, ok := e.res.Catalog.ByTag(r.Tag); ok {
			gene = gg.Name
		}
		vals := ""
		for _, v := range r.Values {
			vals += "_" + v.String()
		}
		fmt.Printf("%s%s%s  %s\n", indent, r.Tag, vals, gene)
	}
}

func expCase4(e *env) error {
	sys, err := e.sys()
	if err != nil {
		return err
	}
	g1, err := tissueGap(e, "brain")
	if err != nil {
		return err
	}
	g2, err := tissueGap(e, "breast")
	if err != nil {
		return err
	}
	// Select the tags with a real (non-null) contrast in each tissue first,
	// then take the set minus: tags responsive in brain but not in breast.
	brainGap, err := sys.Gap(g1)
	if err != nil {
		return err
	}
	breastGap, err := sys.Gap(g2)
	if err != nil {
		return err
	}
	brainNN, err := gea.SelectGap("case4_brainNN", brainGap, gea.GapNonNull(0))
	if err != nil {
		return err
	}
	breastNN, err := gea.SelectGap("case4_breastNN", breastGap, gea.GapNonNull(0))
	if err != nil {
		return err
	}
	diff, err := gea.MinusGap("case4_diff", brainNN, breastNN)
	if err != nil {
		return err
	}
	fmt.Println("paper: selection (non-null) then set minus between tissue GAP tables")
	fmt.Println("       isolates genes unique to one cancer")
	rule()
	fmt.Printf("measured: %d tags with a cancer contrast ONLY in brain\n", diff.Len())
	brainOnly, pan, errTags := 0, 0, 0
	for _, r := range diff.Rows {
		g, ok := e.res.Catalog.ByTag(r.Tag)
		switch {
		case !ok:
			errTags++
		case g.Tissue == "brain":
			brainOnly++
		case g.Tissue == "":
			pan++
		}
	}
	fmt.Printf("ground truth: %d planted brain-specific genes, %d pan-cancer, %d error tags\n",
		brainOnly, pan, errTags)
	printPlanted(e, diff, "  ")
	return nil
}

func expCase5(e *env) error {
	sys, brain, _, groups, err := brainPipeline(e)
	if err != nil {
		return err
	}
	// Remove one library and verify the top gaps survive.
	var keep []string
	for i, m := range brain.Libs {
		if i != 0 {
			keep = append(keep, m.Name)
		}
	}
	nb, err := sys.Dataset("case5Brain")
	if err != nil {
		nb, err = sys.CreateCustomDataset("case5Brain", keep)
		if err != nil {
			return err
		}
	}
	full := gea.FullEnum("case5Enum", nb)
	cancer := full.SelectRows("case5Cancer", func(m gea.LibraryMeta) bool { return m.State == gea.Cancer })
	normal := full.SelectRows("case5Normal", func(m gea.LibraryMeta) bool { return m.State == gea.Normal })
	sc, _, err := gea.Aggregate(gea.Background(), "case5CancerSumy", cancer, gea.AggregateOptions{})
	if err != nil {
		return err
	}
	sn, _, err := gea.Aggregate(gea.Background(), "case5NormalSumy", normal, gea.AggregateOptions{})
	if err != nil {
		return err
	}
	redo, _, err := gea.Diff(gea.Background(), "case5Gap", sc, sn)
	if err != nil {
		return err
	}
	orig, err := sys.Gap(findGapOf(sys, groups))
	if err != nil {
		return err
	}
	origTop, err := gea.TopGaps("case5OrigTop", orig, 0, e.topX)
	if err != nil {
		return err
	}
	redoTop, err := gea.TopGaps("case5RedoTop", redo, 0, e.topX*3)
	if err != nil {
		return err
	}
	redoSet := map[gea.TagID]bool{}
	for _, r := range redoTop.Rows {
		redoSet[r.Tag] = true
	}
	kept := 0
	for _, r := range origTop.Rows {
		if redoSet[r.Tag] {
			kept++
		}
	}
	fmt.Println("paper: returning to the extensional world, removing libraries and redoing")
	fmt.Println("       the analysis verifies whether conclusions depend on single libraries")
	rule()
	fmt.Printf("measured: %d of the original top-%d candidate tags remain in the redone\n",
		kept, origTop.Len())
	fmt.Printf("top-%d after dropping one library and re-deriving in the extensional world\n", redoTop.Len())
	return nil
}

// findGapOf returns (creating if needed) the gap for the brain case groups.
func findGapOf(sys *gea.System, groups gea.CaseGroups) string {
	name := "brainFigGap"
	if _, err := sys.Gap(name); err == nil {
		return name
	}
	if _, err := sys.CreateGap(name, groups.InFascicle, groups.Opposite); err != nil {
		panic(err)
	}
	return name
}

// ------------------------------------------------------------- baselines

func expBaselines(e *env) error {
	sys, brain, inFas, _, err := brainPipeline(e)
	if err != nil {
		return err
	}
	_ = sys
	rows := brain.Expr
	labelsTrue := make([]int, brain.NumLibraries())
	for i, m := range brain.Libs {
		if m.State == gea.Cancer {
			labelsTrue[i] = 1
		}
	}
	fmt.Println("paper claim: one-step clusterers group tissues but yield no candidate genes;")
	fmt.Println("fascicles both cluster and emit compact-tag signatures")
	rule()

	agree := func(pred []int) float64 {
		// Best-of-two-mappings agreement with cancer/normal ground truth.
		var a, b int
		for i := range pred {
			if pred[i] == labelsTrue[i] {
				a++
			}
			if 1-pred[i] == labelsTrue[i] {
				b++
			}
		}
		if b > a {
			a = b
		}
		return float64(a) / float64(len(pred))
	}

	start := time.Now()
	dg, _, err := gea.Hierarchical(gea.Background(), rows, gea.CorrelationDistance, gea.AverageLinkage)
	if err != nil {
		return err
	}
	hl, err := dg.Cut(2)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s agreement=%.2f  time=%v  candidate genes: none\n",
		"hierarchical (Eisen)", agree(binary(hl)), time.Since(start).Round(time.Microsecond))

	rng := rand.New(rand.NewSource(e.seed))
	start = time.Now()
	km, _, err := gea.KMeans(gea.Background(), rows, 2, rng, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s agreement=%.2f  time=%v  candidate genes: none\n",
		"k-means", agree(binary(km.Labels)), time.Since(start).Round(time.Microsecond))

	start = time.Now()
	som, _, err := gea.SOM(gea.Background(), rows, gea.SOMConfig{GridW: 2, GridH: 1, Epochs: 60}, rng)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s agreement=%.2f  time=%v  candidate genes: none\n",
		"SOM (Golub)", agree(binary(som.Labels)), time.Since(start).Round(time.Microsecond))

	start = time.Now()
	order, _, err := gea.OPTICS(gea.Background(), rows, gea.OPTICSConfig{Eps: math.Inf(1), MinPts: 3})
	if err != nil {
		return err
	}
	ol := gea.ExtractDBSCAN(order, medianReach(order)*1.2)
	fmt.Printf("%-22s agreement=%.2f  time=%v  candidate genes: none\n",
		"OPTICS (Ng et al.)", agree(binary(ol)), time.Since(start).Round(time.Microsecond))

	start = time.Now()
	castLabels, _, err := gea.CAST(gea.Background(), rows, gea.CASTConfig{T: 0.75})
	if err != nil {
		return err
	}
	fmt.Printf("%-22s agreement=%.2f  time=%v  clusters=%d (self-determined)  candidate genes: none\n",
		"CAST (Ben-Dor)", agree(binary(castLabels)), time.Since(start).Round(time.Microsecond),
		gea.NumClusters(castLabels))

	// Fascicles: purity of the mined pure-cancer fascicle plus its signature.
	fasLabels := make([]int, brain.NumLibraries())
	for i, m := range brain.Libs {
		if inFas[m.Name] {
			fasLabels[i] = 1
		}
	}
	correct := 0
	for i := range fasLabels {
		if fasLabels[i] == 1 && labelsTrue[i] == 1 {
			correct++
		}
	}
	f, err := sys.Fascicle(e.brainPure)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s pure-cancer fascicle of %d libraries; candidate genes: %d compact tags\n",
		"fascicles (GEA)", f.Fascicle.Size(), f.Fascicle.NumCompact())
	return nil
}

func binary(labels []int) []int {
	// Map arbitrary labels to {0,1} by majority split on the first label.
	out := make([]int, len(labels))
	for i, l := range labels {
		if l == labels[0] {
			out[i] = 0
		} else {
			out[i] = 1
		}
	}
	return out
}

func medianReach(order []gea.OPTICSPoint) float64 {
	var vals []float64
	for _, p := range order {
		if !math.IsInf(p.Reachability, 1) {
			vals = append(vals, p.Reachability)
		}
	}
	if len(vals) == 0 {
		return 1
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// ----------------------------------------------------- cleaning ablation

func expCleaningAblation(e *env) error {
	fmt.Println("paper: 'for clustering analysis to achieve its potential, proper filtering")
	fmt.Println("of the data is necessary' (Ng et al. [NSS01], adopted in Section 4.2)")
	rule()
	for _, mode := range []struct {
		label string
		skip  bool
	}{
		{"cleaned", false},
		{"raw (no cleaning)", true},
	} {
		sys, err := gea.NewSystem(e.res.Corpus, gea.SystemOptions{
			User: "ablate", SkipCleaning: mode.skip,
		})
		if err != nil {
			return err
		}
		d, err := sys.CreateTissueDataset("brain")
		if err != nil {
			return err
		}
		if err := sys.GenerateMetadata("brain", 10); err != nil {
			return err
		}
		alg := gea.LatticeAlgorithm
		if e.full {
			alg = gea.GreedyAlgorithm
		}
		start := time.Now()
		ctx, cancel := e.opCtx()
		names, tr, err := sys.CalculateFasciclesCtx(ctx, "brain", gea.FascicleOptions{
			K: d.NumTags() * e.kpct / 100, MinSize: 3, Algorithm: alg,
		}, gea.ExecLimits{})
		cancel()
		if err != nil {
			return err
		}
		e.noteTrace(tr)
		elapsed := time.Since(start)
		pure := 0
		bestCompact := 0
		for _, n := range names {
			f, _ := sys.Fascicle(n)
			if f.Enum.IsPure(gea.PropCancer) || f.Enum.IsPure(gea.PropNormal) {
				pure++
				if f.Fascicle.NumCompact() > bestCompact {
					bestCompact = f.Fascicle.NumCompact()
				}
			}
		}
		fmt.Printf("%-18s dims=%dx%d fascicles=%d pure=%d best-compact=%d time=%v\n",
			mode.label, d.NumLibraries(), d.NumTags(), len(names), pure, bestCompact,
			elapsed.Round(time.Millisecond))
	}
	return nil
}

// --------------------------------------------------------------- scaling

func expScaling(e *env) error {
	sys, err := e.sys()
	if err != nil {
		return err
	}
	d := sys.Data
	fmt.Println("paper (Section 3.3.1): mine linear in libraries and compact tags;")
	fmt.Println("aggregate one pass (O(n log n) with median); diff linear in tags")
	rule()
	fmt.Println("operation            size                time")
	for _, frac := range []int{25, 50, 100} {
		nt := d.NumTags() * frac / 100
		cols := make([]int, nt)
		for j := range cols {
			cols[j] = j
		}
		rows := make([]int, d.NumLibraries())
		for i := range rows {
			rows[i] = i
		}
		enum, err := gea.NewEnum("scale", d, rows, cols)
		if err != nil {
			return err
		}
		start := time.Now()
		s, _, err := gea.Aggregate(gea.Background(), "scaleSumy", enum, gea.AggregateOptions{})
		if err != nil {
			return err
		}
		tAgg := time.Since(start)
		start = time.Now()
		if _, _, err := gea.Diff(gea.Background(), "scaleGap", s, s); err != nil {
			return err
		}
		tDiff := time.Since(start)
		start = time.Now()
		if _, _, _, err := gea.Populate(gea.Background(), "scalePop", s, d, nil, gea.PopulateOptions{}); err != nil {
			return err
		}
		tPop := time.Since(start)
		fmt.Printf("aggregate/diff/pop   %6d tags        %v / %v / %v\n",
			nt, tAgg.Round(time.Microsecond), tDiff.Round(time.Microsecond), tPop.Round(time.Microsecond))
	}
	// Mining time vs library count.
	brain, err := sys.Dataset("brain")
	if err != nil {
		brain, err = sys.CreateTissueDataset("brain")
		if err != nil {
			return err
		}
		if err := sys.GenerateMetadata("brain", 10); err != nil {
			return err
		}
	}
	tol, err := gea.ToleranceVector(brain, 10)
	if err != nil {
		return err
	}
	for _, nl := range []int{4, 8, brain.NumLibraries()} {
		rows := make([]int, nl)
		for i := range rows {
			rows[i] = i
		}
		sub, err := brain.Subset(rows)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, _, err := gea.MineFasciclesGreedy(gea.Background(), sub, gea.FascicleParams{
			K: sub.NumTags() * e.kpct / 100, Tolerance: tol, MinSize: 2,
		}); err != nil {
			return err
		}
		fmt.Printf("mine (greedy)        %6d libraries   %v\n", nl, time.Since(start).Round(time.Microsecond))
	}
	return nil
}

// ------------------------------------------------------------- xprofiler

// expXProfiler contrasts the NCBI xProfiler approach (pool two groups the
// user guessed, run the Audic-Claverie test) with the GEA's fascicle+gap
// pipeline on recovering the planted brain signature.
func expXProfiler(e *env) error {
	sys, brain, _, groups, err := brainPipeline(e)
	if err != nil {
		return err
	}
	_ = brain

	// Ground truth: the planted brain and pan-cancer signature genes.
	truth := map[gea.TagID]bool{}
	for _, g := range e.res.Catalog.Genes {
		if (g.Tissue == "brain" || g.Tissue == "") &&
			(g.Role.String() == "cancer-up" || g.Role.String() == "cancer-down") {
			truth[g.Tag] = true
		}
	}

	prf := func(tags []gea.TagID) (prec, rec float64) {
		tp := 0
		for _, tg := range tags {
			if truth[tg] {
				tp++
			}
		}
		if len(tags) > 0 {
			prec = float64(tp) / float64(len(tags))
		}
		rec = float64(tp) / float64(len(truth))
		return prec, rec
	}

	// xProfiler: pool cancer vs normal brain on the RAW corpus (the tool
	// works on counts, not normalized data).
	cancer, err := gea.XPoolByState(e.res.Corpus, "brain", gea.Cancer)
	if err != nil {
		return err
	}
	normal, err := gea.XPoolByState(e.res.Corpus, "brain", gea.Normal)
	if err != nil {
		return err
	}
	xres, _, err := gea.XCompare(gea.Background(), cancer, normal, gea.XOptions{Alpha: 1e-4})
	if err != nil {
		return err
	}
	var xtags []gea.TagID
	for _, r := range xres {
		xtags = append(xtags, r.Tag)
	}
	xp, xr := prf(xtags)

	// GEA: fascicle gap vs normal, non-null gaps are the candidates.
	gap, err := sys.Gap(findGapOf(sys, groups))
	if err != nil {
		return err
	}
	nn, err := gea.SelectGap("xpNN", gap, gea.GapNonNull(0))
	if err != nil {
		return err
	}
	var gtags []gea.TagID
	for _, r := range nn.Rows {
		gtags = append(gtags, r.Tag)
	}
	gp, gr := prf(gtags)

	fmt.Println("paper: the xProfiler 'can analyze only one library, or compare only two")
	fmt.Println("libraries at a time' and 'the user has to guess which SAGE libraries")
	fmt.Println("should form a group'; the GEA mines the group and contrasts it")
	rule()
	fmt.Printf("planted signature genes (brain + pan-cancer): %d\n", len(truth))
	fmt.Printf("%-28s candidates=%4d precision=%.2f recall=%.2f\n", "xProfiler (pooled A-C test)", len(xtags), xp, xr)
	fmt.Printf("%-28s candidates=%4d precision=%.2f recall=%.2f\n", "GEA (fascicle gap, non-null)", len(gtags), gp, gr)
	return nil
}

// --------------------------------------------------------------- seeds

// expSeeds reruns the case-study-1 pipeline across several generator seeds
// to show the reproduction is not tuned to one corpus: each run must find a
// pure cancerous fascicle dominated by the planted core and rank planted
// signature genes at the top of the gap.
func expSeeds(e *env) error {
	fmt.Println("seed | pure fascicle | size | core members | planted in top-10 gaps")
	rule()
	for seed := int64(1); seed <= 5; seed++ {
		cfg := gea.SmallConfig()
		cfg.Seed = seed
		res, err := gea.Generate(cfg)
		if err != nil {
			return err
		}
		sys, err := gea.NewSystem(res.Corpus, gea.SystemOptions{User: "seeds"})
		if err != nil {
			return err
		}
		brain, err := sys.CreateTissueDataset("brain")
		if err != nil {
			return err
		}
		_ = brain
		if err := sys.GenerateMetadata("brain", 10); err != nil {
			return err
		}
		ctx, cancel := e.opCtx()
		pure, tr, err := sys.FindPureFascicleCtx(ctx, "brain", gea.PropCancer, 3, gea.LatticeAlgorithm, gea.ExecLimits{})
		cancel()
		if err != nil {
			fmt.Printf("%4d | (none found: %v)\n", seed, err)
			continue
		}
		e.noteTrace(tr)
		f, err := sys.Fascicle(pure)
		if err != nil {
			return err
		}
		core := map[string]bool{}
		for _, n := range res.FascicleCore["brain"] {
			core[n] = true
		}
		hits := 0
		for _, n := range f.Enum.LibraryNames() {
			if core[n] {
				hits++
			}
		}
		groups, err := sys.FormSUM(pure, "brain")
		if err != nil {
			return err
		}
		if _, err := sys.CreateGap("seedGap", groups.InFascicle, groups.Opposite); err != nil {
			return err
		}
		top, err := sys.CalculateTopGap("seedGap", 10)
		if err != nil {
			return err
		}
		planted := 0
		for _, r := range top.Rows {
			if g, ok := res.Catalog.ByTag(r.Tag); ok {
				if g.Role.String() == "cancer-up" || g.Role.String() == "cancer-down" {
					planted++
				}
			}
		}
		fmt.Printf("%4d | %-13s | %4d | %12d | %d/10\n", seed, pure, f.Fascicle.Size(), hits, planted)
	}
	return nil
}

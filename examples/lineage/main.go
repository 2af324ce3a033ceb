// Command lineage demonstrates the GEA's workflow-management features: the
// lineage graph of Section 4.4.2 (history, comments, content dropping with
// metadata replay, cascading deletion), case study 5's verification via
// user-defined ENUM tables (Figure 4.15), range arithmetic over SUMY tables
// (Figures 4.16-4.17), the general database searches (Figures 4.23-4.26),
// the Expression Analysis Database searches (Figure 4.22), and the
// authentication features of Appendix III.
package main

import (
	"fmt"
	"log"

	"gea"
)

func main() {
	log.SetFlags(0)

	// ----- Appendix III: authentication. -----
	users, err := gea.NewUserDB("admin", "gea-admin")
	if err != nil {
		log.Fatal(err)
	}
	admin, err := users.Login("admin", "gea-admin", gea.RoleAdmin)
	if err != nil {
		log.Fatal(err)
	}
	if err := users.AddUser(admin, "jessica", "sage2001", gea.RoleUser); err != nil {
		log.Fatal(err)
	}
	jessica, err := users.Login("jessica", "sage2001", gea.RoleUser)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("logged in as %s (%s)\n", jessica.Name, jessica.Role)
	if _, err := users.Login("jessica", "wrong", gea.RoleUser); err != nil {
		fmt.Printf("bad login rejected: %v\n", err)
	}

	// ----- Build a session and run a short analysis. -----
	res, err := gea.Generate(gea.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := gea.NewSystem(res.Corpus, gea.SystemOptions{
		User: jessica.Name, Catalog: res.Catalog, GeneDBSeed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	brain, err := sys.CreateTissueDataset("brain")
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.GenerateMetadata("brain", 10); err != nil {
		log.Fatal(err)
	}
	pure, err := sys.FindPureFascicle("brain", gea.PropCancer, 3)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := sys.FormSUM(pure, "brain")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.CreateGap("canvsnor", groups.InFascicle, groups.Opposite); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.CalculateTopGap("canvsnor", 5); err != nil {
		log.Fatal(err)
	}

	// ----- Lineage: comments, drop, regenerate, cascade. -----
	if err := sys.Lineage.SetComment(pure, "the compact tags in this fascicle are very interesting"); err != nil {
		log.Fatal(err)
	}
	node, err := sys.Lineage.Get(pure)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfascicle %s: op=%s params=%v\ncomment: %s\n",
		node.Name, node.Operation, node.Params, node.Comment)

	// Drop the GAP table's contents (keeping its metadata), show the replay
	// plan, and rebuild it from the recorded operations.
	if err := sys.DropContents("canvsnor"); err != nil {
		log.Fatal(err)
	}
	plan, err := sys.Lineage.RegenerationPlan("canvsnor")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nregeneration plan for the dropped GAP table:")
	for _, step := range plan {
		fmt.Printf("  %s via %s(%v)\n", step.Name, step.Operation, step.Inputs)
	}
	regenerated, err := sys.Regenerate("canvsnor")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("regenerated %s: %d rows\n", regenerated.Name, regenerated.Len())

	// ----- Case 5: verification with user-defined ENUM tables. -----
	// "We might wonder whether the outcome ... would be affected by the
	// removal of certain libraries": rebuild the data set without the last
	// brain library and redo the aggregation.
	var keep []string
	for i, m := range brain.Libs {
		if i != brain.NumLibraries()-1 {
			keep = append(keep, m.Name)
		}
	}
	newBrain, err := sys.CreateCustomDataset("newBrain", keep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncase 5: user-defined tissue type newBrain has %d of %d brain libraries\n",
		newBrain.NumLibraries(), brain.NumLibraries())
	full := gea.FullEnum("newBrainEnum", newBrain)
	cancer := full.SelectRows("newBrainCancer", func(m gea.LibraryMeta) bool { return m.State == gea.Cancer })
	redo, _, err := gea.Aggregate(gea.Background(), "newBrainCancerSumy", cancer, gea.AggregateOptions{WithMedian: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-aggregated %d tags over the reduced cancer group (median included)\n", redo.Len())

	// ----- Range arithmetic (Figures 4.16-4.17). -----
	s1, err := sys.Sumy(groups.InFascicle)
	if err != nil {
		log.Fatal(err)
	}
	s3, err := sys.Sumy(groups.Opposite)
	if err != nil {
		log.Fatal(err)
	}
	first := gea.MustParseTag("AAAAAAAAAA")
	last := gea.MustParseTag("CAAAAAAAAA")
	rows, _, err := gea.RangeSearch(gea.Background(), []*gea.Sumy{s1, s3}, first, last,
		gea.BroadOverlap(gea.NewInterval(10, 700)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrange search (overlap [10,700]) over %s..%s: %d tags\n", first, last, len(rows))
	shown := 0
	for _, r := range rows {
		if r.Cells[0].Outcome != gea.RangeSatisfied && r.Cells[1].Outcome != gea.RangeSatisfied {
			continue
		}
		fmt.Printf("  %s  inFascicle=%s  normal=%s\n", r.Tag, cell(r.Cells[0]), cell(r.Cells[1]))
		if shown++; shown >= 5 {
			break
		}
	}
	hits := gea.AnyTagSearch(s3, gea.StrictRelation(gea.Includes, gea.NewInterval(5, 700)))
	fmt.Printf("tags in %s whose range strictly includes [5,700]: %d\n", s3.Name, len(hits))

	// ----- General database searches (Figures 4.23-4.26). -----
	info, err := sys.LibraryInfo("1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlibrary 1: %s, %s, %s, %s, total=%.0f unique=%d\n",
		info.Name, info.Tissue, info.State, info.Source, info.TotalTags, info.UniqueTags)
	types := sys.TissueTypes()
	for _, t := range []string{"brain", "breast", "kidney"} {
		fmt.Printf("tissue %-7s %d libraries\n", t, len(types[t]))
	}

	// ----- EADB searches (Figure 4.22). -----
	g, _ := res.Catalog.ByName(gea.GeneRibosomalL12)
	gene, err := sys.GeneDB.GeneForTag(g.Tag)
	if err != nil {
		log.Fatal(err)
	}
	geneRel, err := sys.GeneDB.GenesForTags([]gea.TagID{g.Tag})
	if err != nil {
		log.Fatal(err)
	}
	prot, err := sys.GeneDB.ProteinsForGenes(geneRel)
	if err != nil {
		log.Fatal(err)
	}
	pubs, err := sys.GeneDB.PublicationsForGene(gene)
	if err != nil {
		log.Fatal(err)
	}
	seq := prot.Rows[0][1].Str()
	fmt.Printf("\nEADB: tag %s -> gene %q -> protein sequence %s... (%d aa), %d publications\n",
		g.Tag, gene, seq[:24], len(seq), pubs.Len())

	// ----- Cascade deletion frees the whole derivation. -----
	deleted, err := sys.DeleteCascade(pure)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeleting %s cascaded to %d tables: %v\n", pure, len(deleted), deleted)
}

func cell(c gea.RangeCell) string {
	if c.Outcome == gea.RangeSatisfied {
		return c.Range.String()
	}
	return c.Outcome.String()
}

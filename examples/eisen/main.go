// Command eisen reproduces the Eisen-style one-step analysis the thesis
// reviews (Section 2.3.2) using the toolkit's baseline clusterers, then
// contrasts it with the GEA's fascicle pipeline: hierarchical clustering of
// libraries and of genes with correlation distance, the clustered heat map,
// an OPTICS reachability plot (Ng et al.'s view of the same data) — and,
// finally, the candidate genes that one-step clustering never surfaces.
package main

import (
	"fmt"
	"log"
	"math"

	"gea"
)

func main() {
	log.SetFlags(0)
	res, err := gea.Generate(gea.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := gea.NewSystem(res.Corpus, gea.SystemOptions{User: "eisen", Catalog: res.Catalog, GeneDBSeed: 1})
	if err != nil {
		log.Fatal(err)
	}
	brain, err := sys.CreateTissueDataset("brain")
	if err != nil {
		log.Fatal(err)
	}

	// ---- Cluster the libraries (Eisen's columns). ----
	libLabels := make([]string, brain.NumLibraries())
	for i, m := range brain.Libs {
		tag := "N"
		if m.State == gea.Cancer {
			tag = "C"
		}
		libLabels[i] = fmt.Sprintf("%s_%02d", tag, m.ID)
	}
	dg, _, err := gea.Hierarchical(gea.Background(), brain.Expr, gea.CorrelationDistance, gea.AverageLinkage)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := gea.RenderDendrogram(dg, libLabels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("library dendrogram (average linkage, correlation distance):")
	fmt.Print(tree)

	// ---- Cluster the genes (Eisen's rows): top-variable tags. ----
	top := gea.TopVariableTags(brain, 24)
	geneRows := make([][]float64, len(top))
	geneLabels := make([]string, len(top))
	for i, tg := range top {
		fr, _, err := gea.SingleTagSearch(brain, tg, nil)
		if err != nil {
			log.Fatal(err)
		}
		geneRows[i] = fr.Values
		geneLabels[i] = tg.String()
		if g, ok := res.Catalog.ByTag(tg); ok {
			geneLabels[i] = g.Name
		}
	}
	gdg, _, err := gea.Hierarchical(gea.Background(), geneRows, gea.CorrelationDistance, gea.AverageLinkage)
	if err != nil {
		log.Fatal(err)
	}
	ordRows, ordLabels, err := gea.Reorder(geneRows, geneLabels, gdg.Leaves())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nclustered heat map (genes x libraries, per-gene scaling):")
	fmt.Printf("%24s %s\n", "", header(libLabels))
	hm, err := gea.TextHeatmap(ordRows, pad(ordLabels, 24))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hm)

	// ---- OPTICS reachability (Ng, Sander, Sleumer on SAGE). ----
	order, _, err := gea.OPTICS(gea.Background(), brain.Expr, gea.OPTICSConfig{Eps: math.Inf(1), MinPts: 3})
	if err != nil {
		log.Fatal(err)
	}
	plot, err := gea.ReachabilityPlot(order, libLabels, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nOPTICS reachability plot (valleys are clusters):")
	fmt.Print(plot)

	// ---- The thesis's point: none of the above names candidate genes. ----
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
	if _, err := sys.CreateGap("eisenGap", groups.InFascicle, groups.Opposite); err != nil {
		log.Fatal(err)
	}
	topGap, err := sys.CalculateTopGap("eisenGap", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\none-step clustering groups libraries but names no genes; the GEA's")
	fmt.Println("fascicle + gap pipeline on the same data yields candidates:")
	for _, r := range topGap.Rows {
		gene := r.Tag.String()
		if g, ok := res.Catalog.ByTag(r.Tag); ok {
			gene = g.Name
		}
		fmt.Printf("  %-22s gap=%s\n", gene, r.Values[0])
	}
}

// header renders one-character column markers (C cancer / N normal).
func header(libLabels []string) string {
	b := make([]byte, len(libLabels))
	for i, l := range libLabels {
		b[i] = l[0]
	}
	return string(b)
}

func pad(labels []string, w int) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		if len(l) > w {
			l = l[:w]
		}
		out[i] = l
	}
	return out
}

package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gea"
)

// cmdXProfiler runs the pooled differential comparison of the NCBI
// xProfiler: cancerous vs normal pools of one tissue type.
func cmdXProfiler(args []string) error {
	fs := flag.NewFlagSet("xprofiler", flag.ExitOnError)
	in := fs.String("in", "SageLibrary", "corpus directory")
	tissue := fs.String("tissue", "brain", "tissue type to pool")
	alpha := fs.Float64("alpha", 1e-4, "two-sided significance threshold")
	top := fs.Int("top", 15, "rows to display")
	fs.Parse(args)

	corpus, err := gea.LoadCorpus(*in)
	if err != nil {
		return err
	}
	cancer, err := gea.XPoolByState(corpus, *tissue, gea.Cancer)
	if err != nil {
		return err
	}
	normal, err := gea.XPoolByState(corpus, *tissue, gea.Normal)
	if err != nil {
		return err
	}
	res, _, err := gea.XCompare(gea.Background(), cancer, normal, gea.XOptions{Alpha: *alpha})
	if err != nil {
		return err
	}
	fmt.Printf("pooled %s: cancer total %.0f vs normal total %.0f; %d significant tags at alpha=%g\n",
		*tissue, cancer.Total, normal.Total, len(res), *alpha)
	fmt.Println("tag          cancer/M  normal/M   p-value  direction")
	for i, r := range res {
		if i >= *top {
			fmt.Printf("... and %d more\n", len(res)-*top)
			break
		}
		dir := "up in cancer"
		if !r.HigherInA {
			dir = "down in cancer"
		}
		fmt.Printf("%s %9.1f %9.1f  %8.2g  %s\n", r.Tag, r.RateA, r.RateB, r.PValue, dir)
	}
	return nil
}

// cmdAnnotate resolves tags through the auxiliary gene databases. The
// synthetic databases require the generator's catalog, so this command
// regenerates the corpus configuration rather than loading from disk.
func cmdAnnotate(args []string) error {
	fs := flag.NewFlagSet("annotate", flag.ExitOnError)
	full := fs.Bool("full", false, "full-scale corpus configuration")
	seed := fs.Int64("seed", 1, "generator seed (must match the corpus)")
	tagsArg := fs.String("tags", "", "comma-separated 10-bp tags to annotate")
	fs.Parse(args)
	if *tagsArg == "" {
		return fmt.Errorf("-tags is required, e.g. -tags AAAAAAAAAC,ACGTACGTAC")
	}
	cfg := gea.SmallConfig()
	if *full {
		cfg = gea.DefaultConfig()
	}
	cfg.Seed = *seed
	res, err := gea.Generate(cfg)
	if err != nil {
		return err
	}
	db, err := gea.BuildGeneDB(res.Catalog, *seed)
	if err != nil {
		return err
	}
	var tags []gea.TagID
	for _, s := range strings.Split(*tagsArg, ",") {
		tg, err := gea.ParseTag(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		tags = append(tags, tg)
	}
	anns, err := db.AnnotateTags(tags)
	if err != nil {
		return err
	}
	if len(anns) == 0 {
		fmt.Println("no annotations (sequencing-error tags have no gene)")
		return nil
	}
	for _, a := range anns {
		fmt.Printf("%s -> %s\n  protein: %s (family %s)\n  pathways: %s\n  disease: %s\n  publications: %d\n",
			a.Tag, a.Gene, a.Protein, a.Family, strings.Join(a.Pathways, ", "), a.Disease, len(a.PubMed))
	}
	return nil
}

// cmdSession runs the case-study-1 pipeline and saves the session, or
// inspects a saved one.
func cmdSession(args []string) error {
	fs := flag.NewFlagSet("session", flag.ExitOnError)
	in := fs.String("in", "SageLibrary", "corpus directory (for -run)")
	dir := fs.String("dir", "gea-session", "session directory")
	run := fs.Bool("run", false, "run the brain pipeline and save the session")
	show := fs.Bool("show", false, "load the session and print its lineage tree")
	tissue := fs.String("tissue", "brain", "tissue for -run")
	fs.Parse(args)

	switch {
	case *run:
		corpus, err := gea.LoadCorpus(*in)
		if err != nil {
			return err
		}
		sys, err := gea.NewSystem(corpus, gea.SystemOptions{User: "cli"})
		if err != nil {
			return err
		}
		if _, err := sys.CreateTissueDataset(*tissue); err != nil {
			return err
		}
		if err := sys.GenerateMetadata(*tissue, 10); err != nil {
			return err
		}
		pure, err := sys.FindPureFascicle(*tissue, gea.PropCancer, 3)
		if err != nil {
			return err
		}
		groups, err := sys.FormSUM(pure, *tissue)
		if err != nil {
			return err
		}
		if _, err := sys.CreateGap(*tissue+"_gap", groups.InFascicle, groups.Opposite); err != nil {
			return err
		}
		if _, err := sys.CalculateTopGap(*tissue+"_gap", 10); err != nil {
			return err
		}
		if err := sys.SaveSession(*dir); err != nil {
			return err
		}
		fmt.Printf("session saved to %s (%d lineage nodes)\n", *dir, len(sys.Lineage.Names()))
		return nil
	case *show:
		sys, err := gea.LoadSession(*dir, nil, 0)
		if err != nil {
			return err
		}
		if sys.LoadReport != nil && !sys.LoadReport.OK() {
			fmt.Fprint(os.Stderr, sys.LoadReport)
		}
		fmt.Printf("session of user %q over %d libraries x %d tags\n",
			sys.User, sys.Data.NumLibraries(), sys.Data.NumTags())
		fmt.Print(sys.Lineage.Tree())
		return nil
	default:
		return fmt.Errorf("pass -run or -show")
	}
}

package main

import (
	"flag"
	"fmt"

	"gea"
)

// cmdIngest streams a synthetic corpus into an append store batch by
// batch: each batch is screened, cleaned together with the corpus before
// it into the next view, and durably committed as one corpus generation.
// Running it against a directory that already holds a corpus (from "gea
// gen" or a previous ingest) appends on top of the existing generations
// — the store upgrades a plain SaveCorpus directory for free.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	dir := fs.String("dir", "SageLibrary", "append-store directory (created if missing)")
	batches := fs.Int("batches", 4, "number of append batches to split the generated corpus into")
	full := fs.Bool("full", false, "full-scale corpus (100 libraries, 60k genes) instead of the small one")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)
	if *batches < 1 {
		return fmt.Errorf("-batches must be >= 1")
	}

	cfg := gea.SmallConfig()
	if *full {
		cfg = gea.DefaultConfig()
	}
	cfg.Seed = *seed
	emitted, _, err := gea.EmitBatches(cfg, *batches)
	if err != nil {
		return err
	}

	st, corpus, problems, err := gea.OpenIngestStore(gea.OSFS, *dir, gea.DefaultIngestRetry())
	if err != nil {
		return err
	}
	for _, p := range problems {
		fmt.Printf("salvage: skipped %v\n", p)
	}
	fmt.Printf("store %s: generation %q, %d libraries\n", *dir, st.Gen(), len(corpus.Libraries))

	sys, err := gea.NewSystem(corpus, gea.SystemOptions{
		User:   "ingest",
		Ingest: &gea.SystemIngestOptions{Store: st},
	})
	if err != nil {
		return err
	}

	appended, quarantined := 0, 0
	for i, libs := range emitted {
		rep, err := sys.IngestAppend(gea.IngestBatchFromLibraries(libs))
		if err != nil {
			return fmt.Errorf("batch %d: %w", i+1, err)
		}
		appended += len(rep.Appended)
		quarantined += len(rep.Rejected)
		fmt.Printf("batch %d/%d: appended %d", i+1, len(emitted), len(rep.Appended))
		if rep.Gen != "" {
			fmt.Printf(" -> %s", rep.Gen)
		}
		if len(rep.Rejected) > 0 {
			fmt.Printf(", quarantined %d -> %s", len(rep.Rejected), rep.QuarantineDir)
		}
		if rep.Retries > 0 {
			fmt.Printf(" (absorbed %d transient-fault retries)", rep.Retries)
		}
		fmt.Println()
	}

	view, generation := sys.IngestView()
	fmt.Printf("done: corpus generation %d, %d libraries, %d tags (appended %d, quarantined %d)\n",
		generation, view.Data.NumLibraries(), view.Data.NumTags(), appended, quarantined)
	return nil
}

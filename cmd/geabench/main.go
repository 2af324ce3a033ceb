// Command geabench regenerates every table and figure of the thesis's
// evaluation on synthetic data. Each experiment prints rows in the paper's
// format so paper-vs-measured comparisons (EXPERIMENTS.md) are mechanical.
//
// Usage:
//
//	geabench -exp all                 run every experiment
//	geabench -exp table2.2            the Table 2.2 fascicle example
//	geabench -exp table3.1            indices required (exact reproduction)
//	geabench -exp table3.2            populate() time saving vs index hits
//	geabench -exp cleaning            Section 4.2 cleaning statistics
//	geabench -exp fig4.2|fig4.3|fig4.11   marker-gene figures
//	geabench -exp case3|case4|case5   the cross-tissue case studies
//	geabench -exp baselines           one-step clusterers vs fascicles
//	geabench -exp cleaning-ablation   mining raw vs cleaned data
//	geabench -exp scaling             operator complexity (Section 3.3.1)
//	geabench -exp perf -workers 8     sharded evaluation vs sequential
//	geabench -json                    record perf cells to BENCH_<n>.json
//	                                  (with span trees + metrics snapshot)
//	geabench -json-out PATH           same, but to an explicit path
//	geabench -full                    use the 100-library full-scale corpus
//	geabench -serve URL               load-test a running "gea serve" server
//	                                  (-clients N x -requests M /mine calls,
//	                                  retrying 429/503 per Retry-After)
//	geabench -serve URL -tenants 4    multi-tenant session load instead:
//	                                  N tenant sessions drive shared and
//	                                  tenant-distinct operator runs through
//	                                  /session, recording the cold-vs-cached
//	                                  serve.mine/serve.aggregate BENCH cells
//	geabench -ingest URL              stream a generated corpus into a
//	                                  running "gea serve -ingest" server as
//	                                  -batches POST /ingest appends
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gea"
)

type experiment struct {
	name string
	desc string
	run  func(*env) error
}

// env carries the shared corpus/session so experiments don't regenerate it.
type env struct {
	cfg      gea.GenConfig
	res      *gea.GenResult
	full     bool
	seed     int64
	kpct     int
	topX     int
	deadline time.Duration
	workers  int
	jsonOut  bool
	jsonPath string
	benchNum int
	system   *gea.System // lazily built

	// trace collects spans and metrics from the perf experiment's
	// governed runs when -json is on, so the benchmark document carries
	// the full execution story, not just wall times.
	trace *gea.ObsCollector

	// bench collects the perf experiment's cells for -json.
	bench []benchRecord

	// Bounded-execution accounting for the -deadline flag.
	deadlineHits int
	partials     int

	// Cached brain pipeline outputs shared across experiments.
	brainPure   string
	brainGroups gea.CaseGroups
}

func (e *env) sys() (*gea.System, error) {
	if e.system != nil {
		return e.system, nil
	}
	sys, err := gea.NewSystem(e.res.Corpus, gea.SystemOptions{
		User: "geabench", Catalog: e.res.Catalog, GeneDBSeed: e.seed,
		Workers: e.workers,
	})
	if err != nil {
		return nil, err
	}
	e.system = sys
	return sys, nil
}

func main() {
	expName := flag.String("exp", "all", "experiment id (or 'all', or 'list')")
	full := flag.Bool("full", false, "full-scale corpus (100 libraries, 60k genes); slower")
	seed := flag.Int64("seed", 1, "generator seed")
	kpct := flag.Int("kpct", 55, "compact-attribute percentage for fascicle mining")
	topX := flag.Int("top", 10, "top gaps to display")
	deadline := flag.Duration("deadline", 0, "wall-time bound per governed operator (0 = unlimited); expired operators stop gracefully")
	workers := flag.Int("workers", 1, "worker count for sharded operator evaluation (results are identical at any setting)")
	jsonOut := flag.Bool("json", false, "write the perf experiment's records to BENCH_<n>.json")
	jsonPath := flag.String("json-out", "", "write the perf experiment's records to this exact path (implies -json; empty = scan the CWD for the first unused BENCH_<n>.json)")
	benchNum := flag.Int("benchnum", 0, "pin the BENCH_<n>.json slot written by -json (0 = first unused)")
	serveURL := flag.String("serve", "", "load-test a running gea serve instance at this base URL instead of running experiments")
	clients := flag.Int("clients", 4, "concurrent clients for -serve")
	requests := flag.Int("requests", 10, "requests per client for -serve")
	tenants := flag.Int("tenants", 0, "with -serve: drive N tenant sessions through /session instead of raw /mine, recording the cold-vs-cached cache cells (0 = plain /mine load)")
	ingestURL := flag.String("ingest", "", "stream a generated corpus into a running gea serve -ingest instance at this base URL instead of running experiments")
	ingestBatches := flag.Int("batches", 4, "append batches for -ingest")
	ingestPrefix := flag.String("prefix", "ing", "library-name prefix for -ingest, keeping repeated soaks collision-free")
	flag.Parse()
	if *jsonPath != "" {
		*jsonOut = true
	}

	if *ingestURL != "" {
		// Remote ingestion soak: generate batches locally, stream them to
		// the server under test.
		cfg := gea.SmallConfig()
		if *full {
			cfg = gea.DefaultConfig()
		}
		cfg.Seed = *seed
		e := &env{cfg: cfg, full: *full, seed: *seed, jsonOut: *jsonOut, jsonPath: *jsonPath,
			benchNum: *benchNum}
		if err := runIngestLoad(e, strings.TrimRight(*ingestURL, "/"), *ingestBatches, *ingestPrefix); err != nil {
			fmt.Fprintln(os.Stderr, "geabench -ingest:", err)
			os.Exit(1)
		}
		if *jsonOut && len(e.bench) > 0 {
			if err := writeBenchJSON(e); err != nil {
				fmt.Fprintln(os.Stderr, "geabench: writing benchmark records:", err)
				os.Exit(1)
			}
		}
		return
	}

	if *serveURL != "" {
		// Server-side load generation needs no local corpus: the server
		// under test holds the data.
		e := &env{full: *full, seed: *seed, jsonOut: *jsonOut, jsonPath: *jsonPath,
			benchNum: *benchNum}
		load := func() error { return runServeLoad(e, strings.TrimRight(*serveURL, "/"), *clients, *requests) }
		if *tenants > 0 {
			load = func() error { return runTenantLoad(e, strings.TrimRight(*serveURL, "/"), *tenants, *requests) }
		}
		if err := load(); err != nil {
			fmt.Fprintln(os.Stderr, "geabench -serve:", err)
			os.Exit(1)
		}
		if *jsonOut && len(e.bench) > 0 {
			if err := writeBenchJSON(e); err != nil {
				fmt.Fprintln(os.Stderr, "geabench: writing benchmark records:", err)
				os.Exit(1)
			}
		}
		return
	}

	exps := []experiment{
		{"table2.2", "fascicle worked example on the Table 2.2 fragment", expTable22},
		{"table3.1", "indices required for w hits (exact)", expTable31},
		{"table3.2", "populate() time saving vs indices hit", expTable32},
		{"table4.1", "Allen's thirteen basic interval relations", expTable41},
		{"cleaning", "Section 4.2 cleaning statistics", expCleaning},
		{"fig4.2", "RIBOSOMAL PROTEIN L12: fascicle vs normal", figMarker(gea.GeneRibosomalL12)},
		{"fig4.3", "ALPHA TUBULIN: fascicle vs normal", figMarker(gea.GeneAlphaTubulin)},
		{"fig4.11", "ADP PROTEIN: inside vs outside fascicle", figMarker(gea.GeneADPProtein)},
		{"case3", "genes always lower/higher in cancer across tissues", expCase3},
		{"case4", "genes unique to one type of cancer", expCase4},
		{"case5", "verification with user-defined ENUM tables", expCase5},
		{"baselines", "one-step clusterers vs fascicle mining", expBaselines},
		{"xprofiler", "pooled Audic-Claverie test vs GEA gap analysis", expXProfiler},
		{"cleaning-ablation", "fascicle purity on raw vs cleaned data", expCleaningAblation},
		{"scaling", "operator complexity (Section 3.3.1)", expScaling},
		{"seeds", "robustness: pipeline outcome across generator seeds", expSeeds},
		{"perf", "sharded evaluation: sequential vs -workers N", expPerf},
	}

	if *expName == "list" {
		for _, e := range exps {
			fmt.Printf("%-18s %s\n", e.name, e.desc)
		}
		return
	}

	cfg := gea.SmallConfig()
	if *full {
		cfg = gea.DefaultConfig()
	}
	cfg.Seed = *seed
	res, err := gea.Generate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "geabench:", err)
		os.Exit(1)
	}
	e := &env{cfg: cfg, res: res, full: *full, seed: *seed, kpct: *kpct, topX: *topX,
		deadline: *deadline, workers: *workers,
		jsonOut: *jsonOut, jsonPath: *jsonPath, benchNum: *benchNum}
	if *jsonOut {
		e.trace = gea.NewObsCollector()
	}

	ran := 0
	for _, ex := range exps {
		if *expName != "all" && ex.name != *expName {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", ex.name, ex.desc)
		if err := ex.run(e); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				// A deadline stop is a bounded-execution outcome, not a
				// failure: report it and keep running the remaining
				// experiments.
				e.deadlineHits++
				fmt.Printf("(stopped at the %v deadline; continuing)\n", *deadline)
				fmt.Println()
				ran++
				continue
			}
			fmt.Fprintf(os.Stderr, "geabench %s: %v\n", ex.name, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "geabench: unknown experiment %q (use -exp list)\n", *expName)
		os.Exit(2)
	}
	if *deadline > 0 {
		fmt.Printf("deadline report: %d experiment(s) stopped at the %v deadline, %d partial result(s) accepted\n",
			e.deadlineHits, *deadline, e.partials)
	}
	if *jsonOut && len(e.bench) > 0 {
		if err := writeBenchJSON(e); err != nil {
			fmt.Fprintln(os.Stderr, "geabench: writing benchmark records:", err)
			os.Exit(1)
		}
	}
}

// opCtx returns a context bounded by the -deadline flag (background when
// unset). Callers must invoke the cancel function when the operator returns.
func (e *env) opCtx() (context.Context, context.CancelFunc) {
	if e.deadline <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), e.deadline)
}

// noteTrace folds one governed operator's trace into the run accounting.
func (e *env) noteTrace(tr gea.ExecTrace) {
	if tr.Partial {
		e.partials++
	}
}

// sectionRule prints a thin separator.
func rule() { fmt.Println(strings.Repeat("-", 64)) }

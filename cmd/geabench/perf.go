package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"gea"
)

// This file implements the "perf" experiment and the -json benchmark
// record: the first datapoints of the repo's performance trajectory, as
// sequential-vs-sharded measurements of the core operators (see
// internal/exec/shard). Each record is one (operator, worker count) cell;
// -json persists the run to BENCH_<n>.json so successive PRs can compare.

// benchRecord is one measured cell of the perf experiment.
type benchRecord struct {
	// Op names the operator benchmarked (e.g. "populate", "diff").
	Op string `json:"op"`
	// Workers is the exec.Limits.Workers setting of this cell.
	Workers int `json:"workers"`
	// WallNS is the best-of-reps wall time in nanoseconds; Wall is the
	// same value rendered for humans.
	WallNS int64  `json:"wall_ns"`
	Wall   string `json:"wall"`
	// Units is the exec work charged by one run (identical at any worker
	// count — the shard substrate splits the budget, it does not change
	// what is charged).
	Units int64 `json:"units"`
	// Reps is how many timed repetitions the best was taken over.
	Reps int `json:"reps"`
	// BatchSize and LibsPerSec are the ingestion series' extra cells
	// (libraries per append batch, commit throughput); omitted from the
	// perf records so the BENCH schema stays stable.
	BatchSize  int     `json:"batch_size,omitempty"`
	LibsPerSec float64 `json:"libs_per_sec,omitempty"`
}

// benchFile is the BENCH_<n>.json document. NumCPU and GoMaxProcs pin the
// hardware context: a parallel cell can only beat its sequential baseline
// when the recording machine actually has spare cores, so the trajectory
// is meaningless without them.
type benchFile struct {
	Bench      int           `json:"bench"`
	Corpus     string        `json:"corpus"`
	Seed       int64         `json:"seed"`
	NumCPU     int           `json:"num_cpu"`
	GoMaxProcs int           `json:"go_max_procs"`
	Records    []benchRecord `json:"records"`
	// Spans holds the span trees of the perf experiment's identity-check
	// runs (the timed repetitions run untraced, so the collector never
	// perturbs the measurement) and Metrics the deterministic snapshot
	// they fed — the full execution story behind the wall times.
	Spans   []*gea.ObsRecord `json:"spans,omitempty"`
	Metrics *gea.ObsSnapshot `json:"metrics,omitempty"`
}

// writeBenchJSON persists the collected records. An explicit -json-out
// path wins; otherwise a positive -benchnum pins the BENCH_<n>.json slot,
// and failing that the first unused slot in the CWD is taken, so
// successive recorded runs accumulate a trajectory instead of overwriting.
func writeBenchJSON(e *env) error {
	n := e.benchNum
	path := e.jsonPath
	if path == "" {
		if n <= 0 {
			for n = 1; ; n++ {
				if _, err := os.Stat(benchName(n)); os.IsNotExist(err) {
					break
				}
			}
		}
		path = benchName(n)
	}
	corpus := "small"
	if e.full {
		corpus = "full"
	}
	doc := benchFile{Bench: n, Corpus: corpus, Seed: e.seed,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Records: e.bench}
	if e.trace != nil {
		doc.Spans = e.trace.Roots()
		snap := e.trace.Metrics.Snapshot()
		doc.Metrics = &snap
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchmark records written to %s\n", path)
	return nil
}

func benchName(n int) string { return fmt.Sprintf("BENCH_%d.json", n) }

// timeBest runs f reps times and returns the smallest wall time: the
// measurement least disturbed by scheduling noise.
func timeBest(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// expPerf measures populate(), diff() and aggregate() sequentially and at
// the -workers setting, asserts the outputs are identical, and records the
// cells for -json. The sequential baseline always runs so every recorded
// run carries its own reference point.
func expPerf(e *env) error {
	sys, err := e.sys()
	if err != nil {
		return err
	}
	d := sys.Data
	workers := e.workers
	if workers < 1 {
		workers = 1
	}
	counts := []int{1}
	if workers > 1 {
		counts = append(counts, workers)
	}
	reps := 5
	if e.full {
		reps = 3
	}

	// One SUMY over the whole corpus drives all three operators: populate
	// verifies every library against every tag range, diff walks every
	// tag, aggregate summarizes every tag.
	rows := make([]int, d.NumLibraries())
	for i := range rows {
		rows[i] = i
	}
	cols := make([]int, d.NumTags())
	for j := range cols {
		cols[j] = j
	}
	enum, err := gea.NewEnum("perf", d, rows, cols)
	if err != nil {
		return err
	}
	sumy, _, err := gea.Aggregate(gea.Background(), "perfSumy", enum, gea.AggregateOptions{})
	if err != nil {
		return err
	}
	// A second SUMY over half the libraries gives diff() two distinct
	// operands.
	halfEnum, err := gea.NewEnum("perfHalf", d, rows[:(len(rows)+1)/2], cols)
	if err != nil {
		return err
	}
	halfSumy, _, err := gea.Aggregate(gea.Background(), "perfHalfSumy", halfEnum, gea.AggregateOptions{})
	if err != nil {
		return err
	}
	// A selective SUMY — the aggregate profile of the first tissue's
	// libraries — drives the selective populate cell.
	tissues := d.TissueTypes()
	selRows := d.RowsByTissue(tissues[0])
	selEnum, err := gea.NewEnum("perfSel", d, selRows, cols)
	if err != nil {
		return err
	}
	selSumy, _, err := gea.Aggregate(gea.Background(), "perfSelSumy", selEnum, gea.AggregateOptions{})
	if err != nil {
		return err
	}

	fmt.Printf("sharded evaluation, best of %d (workers from -workers):\n", reps)
	if workers > 1 && runtime.NumCPU() == 1 {
		fmt.Println("note: this machine exposes a single CPU; parallel cells measure")
		fmt.Println("the substrate's overhead, not a speedup")
	}
	rule()
	fmt.Println("operator     workers   wall         units    vs seq")

	// The identity-check run records spans and metrics when -json is on;
	// the timed repetitions stay on the untraced background context so
	// the collector never disturbs the measurement.
	traced := context.Background()
	if e.trace != nil {
		traced = gea.WithObsCollector(traced, e.trace)
		traced = gea.WithExecHook(traced, e.trace.ExecHook())
	}

	type opSpec struct {
		name string
		run  func(ctx context.Context, w int) (interface{}, gea.ExecTrace, error)
	}
	ops := []opSpec{
		{"populate", func(ctx context.Context, w int) (interface{}, gea.ExecTrace, error) {
			return gea.Run(ctx, gea.ExecLimits{Workers: w}, "core.Populate", "perfPop", func(c *gea.Ctl) (interface{}, bool, error) {
				en, _, partial, err := gea.Populate(c, "perfPop", sumy, d, nil, gea.PopulateOptions{SimulateRowFetch: true})
				return en, partial, err
			})
		}},
		{"populate-sel", func(ctx context.Context, w int) (interface{}, gea.ExecTrace, error) {
			return gea.Run(ctx, gea.ExecLimits{Workers: w}, "core.Populate", "perfSelPop", func(c *gea.Ctl) (interface{}, bool, error) {
				en, _, partial, err := gea.Populate(c, "perfSelPop", selSumy, d, nil, gea.PopulateOptions{})
				return en, partial, err
			})
		}},
		{"diff", func(ctx context.Context, w int) (interface{}, gea.ExecTrace, error) {
			return gea.Run(ctx, gea.ExecLimits{Workers: w}, "core.Diff", "perfGap", func(c *gea.Ctl) (interface{}, bool, error) {
				return gea.Diff(c, "perfGap", sumy, halfSumy)
			})
		}},
		{"aggregate", func(ctx context.Context, w int) (interface{}, gea.ExecTrace, error) {
			return gea.Run(ctx, gea.ExecLimits{Workers: w}, "core.Aggregate", "perfAgg", func(c *gea.Ctl) (interface{}, bool, error) {
				return gea.Aggregate(c, "perfAgg", enum, gea.AggregateOptions{})
			})
		}},
	}

	for _, op := range ops {
		var seqNS int64
		var seqOut interface{}
		for _, w := range counts {
			out, tr, err := op.run(traced, w)
			if err != nil {
				return fmt.Errorf("%s at %d workers: %v", op.name, w, err)
			}
			if w == 1 {
				seqOut = out
			} else if !reflect.DeepEqual(stripName(seqOut), stripName(out)) {
				return fmt.Errorf("%s at %d workers diverged from the sequential result", op.name, w)
			}
			best, err := timeBest(reps, func() error {
				_, _, err := op.run(context.Background(), w)
				return err
			})
			if err != nil {
				return err
			}
			rec := benchRecord{Op: op.name, Workers: w, WallNS: best.Nanoseconds(),
				Wall: best.String(), Units: tr.Units, Reps: reps}
			e.bench = append(e.bench, rec)
			vs := "(baseline)"
			if w == 1 {
				seqNS = rec.WallNS
			} else if rec.WallNS > 0 {
				vs = fmt.Sprintf("%.2fx", float64(seqNS)/float64(rec.WallNS))
			}
			fmt.Printf("%-12s %7d   %-12v %6d    %s\n", op.name, w, best.Round(time.Microsecond), rec.Units, vs)
		}
	}
	if workers == 1 {
		fmt.Println("(sequential only; rerun with -workers N for the parallel cells)")
	}
	return nil
}

// stripName zeroes the result's Name field so the identity check compares
// the computed content, not the label both runs were created under.
func stripName(v interface{}) interface{} {
	switch t := v.(type) {
	case *gea.Enum:
		cp := *t
		cp.Name = ""
		return &cp
	case *gea.Gap:
		cp := *t
		cp.Name = ""
		return &cp
	case *gea.Sumy:
		cp := *t
		cp.Name = ""
		return &cp
	default:
		return v
	}
}

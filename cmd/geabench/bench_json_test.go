package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gea"
)

// benchEnv builds the small-corpus environment the perf experiment runs
// under in tests, with JSON recording (and therefore tracing) enabled.
func benchEnv(t *testing.T) *env {
	t.Helper()
	cfg := gea.SmallConfig()
	cfg.Seed = 1
	res, err := gea.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return &env{cfg: cfg, res: res, seed: cfg.Seed, kpct: 55, topX: 10,
		workers: 2, jsonOut: true, trace: gea.NewObsCollector()}
}

// keysOf returns the sorted key set of a decoded JSON object.
func keysOf(t *testing.T, v any) []string {
	t.Helper()
	obj, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("want a JSON object, got %T", v)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBenchJSONSchema runs the perf experiment with tracing on, writes the
// document through -json-out, and pins the JSON schema: the top-level and
// per-record key sets are golden, and the span trees plus metrics snapshot
// recorded by the identity-check runs are present and well-formed.
func TestBenchJSONSchema(t *testing.T) {
	e := benchEnv(t)
	e.jsonPath = filepath.Join(t.TempDir(), "bench.json")
	if err := expPerf(e); err != nil {
		t.Fatalf("perf experiment: %v", err)
	}
	if err := writeBenchJSON(e); err != nil {
		t.Fatalf("writeBenchJSON: %v", err)
	}
	buf, err := os.ReadFile(e.jsonPath)
	if err != nil {
		t.Fatalf("read -json-out file: %v", err)
	}

	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	wantTop := []string{"bench", "corpus", "go_max_procs", "metrics", "num_cpu", "records", "seed", "spans"}
	if got := keysOf(t, any(doc)); !equalStrings(got, wantTop) {
		t.Errorf("top-level keys = %v, want %v", got, wantTop)
	}

	records := doc["records"].([]any)
	// populate, populate-sel, diff, aggregate at workers {1, 2}.
	if len(records) != 8 {
		t.Fatalf("want 8 records, got %d", len(records))
	}
	// The ingestion cells are omitempty, so perf records keep this key set.
	wantRec := []string{"op", "reps", "units", "wall", "wall_ns", "workers"}
	for i, r := range records {
		if got := keysOf(t, r); !equalStrings(got, wantRec) {
			t.Errorf("record %d keys = %v, want %v", i, got, wantRec)
		}
	}

	// One root span per identity-check run, in execution order.
	spans := doc["spans"].([]any)
	if len(spans) != 8 {
		t.Fatalf("want 8 root spans, got %d", len(spans))
	}
	wantOps := []string{"core.Populate", "core.Populate", "core.Populate", "core.Populate",
		"core.Diff", "core.Diff", "core.Aggregate", "core.Aggregate"}
	for i, s := range spans {
		sp := s.(map[string]any)
		if sp["op"] != wantOps[i] {
			t.Errorf("span %d op = %v, want %s", i, sp["op"], wantOps[i])
		}
		if sp["outcome"] != "ok" {
			t.Errorf("span %d outcome = %v, want ok", i, sp["outcome"])
		}
		if sp["units"].(float64) <= 0 {
			t.Errorf("span %d charged no units", i)
		}
	}

	// The metrics snapshot carries the per-op counters the spans fed.
	metrics := doc["metrics"].(map[string]any)
	var counterNames []string
	for _, c := range metrics["counters"].([]any) {
		counterNames = append(counterNames, c.(map[string]any)["name"].(string))
	}
	for _, want := range []string{"ops.core.Populate.count", "ops.core.Diff.count",
		"ops.core.Aggregate.count", "exec.checkpoints", "spans.completed"} {
		if !contains(counterNames, want) {
			t.Errorf("metrics snapshot missing counter %q (have %v)", want, counterNames)
		}
	}
}

// TestBenchJSONSlotFallback checks that without -json-out the writer still
// scans the CWD for the first unused BENCH_<n>.json slot.
func TestBenchJSONSlotFallback(t *testing.T) {
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()
	// Occupy slot 1 so the scan must advance to slot 2.
	if err := os.WriteFile(benchName(1), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := &env{seed: 1, jsonOut: true,
		bench: []benchRecord{{Op: "populate", Workers: 1, WallNS: 1, Wall: "1ns", Units: 1, Reps: 1}}}
	if err := writeBenchJSON(e); err != nil {
		t.Fatalf("writeBenchJSON: %v", err)
	}
	buf, err := os.ReadFile(benchName(2))
	if err != nil {
		t.Fatalf("slot 2 not written: %v", err)
	}
	if !strings.Contains(string(buf), `"bench": 2`) {
		t.Errorf("slot number not recorded in the document:\n%s", buf)
	}
	// No trace collector: the optional observability fields stay absent.
	if strings.Contains(string(buf), `"spans"`) || strings.Contains(string(buf), `"metrics"`) {
		t.Errorf("untraced run must omit spans/metrics:\n%s", buf)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

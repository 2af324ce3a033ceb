// Command perfbench is GEA's end-to-end benchmark. It drives the
// checkout's own "gea serve" over HTTP with one of three closed-loop
// workloads (explore-cold, shared-hot, ingest-mixed), checks every reply,
// and prints the end-to-end metrics, or with -trace 1 the per-layer
// breakdown, as one JSON object on the last line of stdout. README.md
// describes the workloads and metrics; run.sh builds and runs it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// Workload sizing.
const (
	// setupLaunches is how many times a run starts the server; setup_s
	// is their median.
	setupLaunches = 3
	// ingestBatches appends of batchSize libraries each run on
	// ingest-mixed; the first probeBatches of them on the append probe
	// of the other workloads.
	ingestBatches = 5
	batchSize     = 5
	probeBatches  = 2
	// minReads is the fewest reads ingest-mixed's reader makes, so its
	// p90 leaves ten samples beyond it.
	minReads = 100
	// Memory a workload's server may need, in MB, checked against
	// MemAvailable before anything starts. Ingestion keeps about 400 MB
	// per append at the seed commit.
	baseServerMB   = 1500
	perAppendMB    = 400
	loadgenReserve = 300
)

var workloadNames = []string{"explore-cold", "shared-hot", "ingest-mixed"}

type runner struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	root     string
	geaBin   string
	addr     string
	workers  int
	runDir   string
	ck       *checker
	// store is the run's corpus store, golden the default seed's.
	store, golden string
	batches       [][]byte
	record        map[string]any
	// keepLogs keeps the server logs of a failed run.
	keepLogs bool
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", defaultSeed, "seed for the corpus, request sequences and ingest batches")
	seconds := flag.Int("seconds", 12, "nominal run length; the work of a run is a fixed seeded sequence sized for it")
	trace := flag.Int("trace", 0, "1 runs the traced breakdown and prints the per-layer metrics")
	root := flag.String("root", ".", "root of the checkout under test")
	geaBin := flag.String("gea", "", "the gea binary built from the checkout")
	port := flag.Int("port", 7390, "loopback port the servers listen on, one at a time")
	recordGolden := flag.Bool("record-golden", false, "write "+goldenPath+" from the checkout's results instead of running a workload")
	flag.Parse()

	r := &runner{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		root: *root, geaBin: *geaBin, addr: fmt.Sprintf("127.0.0.1:%d", *port),
		workers: runtime.NumCPU(), ck: newChecker(),
	}
	if err := r.prepare(*recordGolden); err != nil {
		logf("%v", err)
		return 2
	}
	defer r.cleanup()
	// An interrupted run still stops its servers and removes its stores.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		r.cleanup()
		os.Exit(2)
	}()
	if *recordGolden {
		if err := r.recordGolden(); err != nil {
			logf("record golden: %v", err)
			r.keepLogs = true
			return 1
		}
		logf("wrote %s", goldenPath)
		return 0
	}
	res, err := r.run()
	if err != nil {
		logf("%v", err)
		r.keepLogs = true
		return 1
	}
	r.record["loadavg_end"] = loadAvg()
	rec, _ := json.Marshal(r.record)
	fmt.Printf("run-record: %s\n", rec)
	for _, v := range r.ck.failed() {
		fmt.Printf("incorrect: %s\n", v)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		r.keepLogs = true
		return 1
	}
	return 0
}

// cleanup stops every server and removes the run directory; after a
// failed or incorrect run it keeps the server logs for diagnosis.
func (r *runner) cleanup() {
	stopAll()
	if !r.keepLogs {
		_ = os.RemoveAll(r.runDir)
		return
	}
	entries, _ := os.ReadDir(r.runDir)
	for _, e := range entries {
		if e.IsDir() {
			_ = os.RemoveAll(filepath.Join(r.runDir, e.Name()))
		}
	}
	logf("server logs kept in %s", r.runDir)
}

// prepare validates the arguments, runs the preflight checks, and builds
// or verifies the cached corpora.
func (r *runner) prepare(recordGolden bool) error {
	if !recordGolden && !slices.Contains(workloadNames, r.workload) {
		return fmt.Errorf("-workload must be one of %s", strings.Join(workloadNames, ", "))
	}
	if r.geaBin == "" {
		return fmt.Errorf("-gea is required (run.sh builds it)")
	}
	for _, dir := range []string{"cmd/gea", "perfbench"} {
		if _, err := os.Stat(filepath.Join(r.root, dir)); err != nil {
			return fmt.Errorf("%s is not a gea checkout: %v", r.root, err)
		}
	}
	// Preflight: a free port, no other gea serve, enough memory.
	if !portFree(r.addr) {
		return fmt.Errorf("preflight: %s is taken", r.addr)
	}
	if pids := runningGeaServes(); len(pids) > 0 {
		return fmt.Errorf("preflight: another gea serve is running (pids %v)", pids)
	}
	need := float64(baseServerMB + loadgenReserve)
	if r.workload == "ingest-mixed" {
		need += ingestBatches * perAppendMB
	}
	avail, err := memAvailableMB()
	if err != nil {
		return fmt.Errorf("preflight: %v", err)
	}
	if avail < need {
		return fmt.Errorf("preflight: %.0f MB available, %s needs %.0f MB", avail, r.workload, need)
	}

	build := filepath.Join(r.root, ".bench_build")
	r.runDir = filepath.Join(build, "run", fmt.Sprintf("%s-%d", r.workload, os.Getpid()))
	if err := os.RemoveAll(r.runDir); err != nil {
		return err
	}
	if err := os.MkdirAll(r.runDir, 0o755); err != nil {
		return err
	}
	if r.golden, err = ensureCorpus(r.geaBin, filepath.Join(build, "corpus"), defaultSeed); err != nil {
		return err
	}
	if r.store, err = ensureCorpus(r.geaBin, filepath.Join(build, "corpus"), r.seed); err != nil {
		return err
	}
	r.record = map[string]any{
		"workload": r.workload, "seed": r.seed, "trace": r.traced, "seconds": r.seconds,
		"nproc": runtime.NumCPU(), "loadgen_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs": serverGOMAXPROCS(), "go": runtime.Version(),
		"commit": commitOf(r.root), "loadavg_start": loadAvg(), "mem_available_mb": int(avail),
	}
	return nil
}

// serverGOMAXPROCS is what the servers run with: the environment's
// GOMAXPROCS when set, otherwise nproc.
func serverGOMAXPROCS() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return fmt.Sprint(runtime.NumCPU())
}

// commitOf names the code under test: the git commit when the checkout
// is a repository, otherwise a SHA-256 over every file outside .git and
// .bench_build.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// serverFlags are the flags of the workload's server.
func (r *runner) serverFlags(debug bool) []string {
	f := []string{"-workers", fmt.Sprint(r.workers)}
	if r.workload == "ingest-mixed" {
		f = append(f, "-ingest")
	}
	if debug {
		f = append(f, "-debug")
	}
	return f
}

// auxFlags are the flags of the auxiliary server, which checks (and
// records) the golden fingerprints and runs the append probe.
func (r *runner) auxFlags() []string {
	return []string{"-workers", fmt.Sprint(r.workers), "-ingest"}
}

// start launches a server over a fresh copy of src.
func (r *runner) start(src, name string, flags []string) (*server, error) {
	store, err := freshStore(r.runDir, src, name)
	if err != nil {
		return nil, err
	}
	return launch(r.geaBin, store, r.addr, flags, filepath.Join(r.runDir, name+".log"))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units names every metric's unit.
var units = map[string]string{
	"setup_s": "s", "requests_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
	"cpu_ms_per_request": "ms", "peak_rss_mb": "MB", "append_p50_ms": "ms", "libraries_per_s": "1/s",
}

// layerUnits names every per-layer metric's unit; layerMetrics reports
// exactly these.
var layerUnits = map[string]string{
	"serve.self_ms_p50": "ms", "serve.self_ms_p90": "ms", "serve.reply_mb_mean": "MB", "serve.mb_per_s": "MB/s",
	"session.dispatch_ms_p50": "ms", "session.dispatch_ms_p90": "ms", "session.lineage_nodes": "count",
	"admission.wait_ms_mean": "ms", "admission.refused": "count",
	"rescache.hit_ratio": "ratio", "rescache.shared": "count", "rescache.evicted": "count", "rescache.mb": "MB",
	"core.aggregate_ms": "ms", "core.diff_ms": "ms", "core.topgap_ms": "ms", "core.select_ms": "ms",
	"core.populate_ms": "ms", "core.rangesearch_ms": "ms", "core.mine_ms": "ms",
	"core.units_per_ms": "units/ms", "core.span_share": "ratio",
	"system.findpure_ms": "ms", "fascicle.miner_ms": "ms", "shard.cpu_per_wall": "ratio",
	"columnar.blocks_skipped_ratio": "ratio", "columnar.mb_decoded": "MB",
	"ingest.apply_ms_mean": "ms", "ingest.commit_ms_mean": "ms", "ingest.rss_mb_per_append": "MB",
	"ingest.quarantined": "count", "ingest.retries": "count",
	"gc.cycles": "count", "gc.pause_ms": "ms", "heap.alloc_mb_per_request": "MB",
	"loadgen.cpu_frac": "ratio", "trace.overhead_frac": "ratio", "trace.unreconciled": "count",
}

// run executes the workload, untraced or traced.
func (r *runner) run() (result, error) {
	if r.workload == "ingest-mixed" || !r.traced {
		base, err := loadLibraries(r.store)
		if err != nil {
			return result{}, err
		}
		if r.batches, err = makeBatches(base, r.seed, ingestBatches, batchSize); err != nil {
			return result{}, err
		}
	}
	if r.traced {
		return r.runTraced()
	}
	return r.runUntraced()
}

// runUntraced measures the end-to-end metrics. Launch 1 is the auxiliary
// server, "gea serve -ingest" over the default seed's corpus: it checks
// the golden fingerprints and, for the workloads whose server does not
// ingest, runs the append probe. Launches 2 and 3 serve the run's corpus
// with the workload's flags, and launch 3 runs the workload. setup_s is
// the median of the three launches.
func (r *runner) runUntraced() (result, error) {
	aux, err := r.start(r.golden, "aux", r.auxFlags())
	if err != nil {
		return result{}, err
	}
	setups := []float64{aux.setup.Seconds()}
	probe := &timed{}
	err = r.auxChecks(aux, probe)
	aux.stop()
	if err != nil {
		return result{}, err
	}
	var main *server
	for i := 2; i <= setupLaunches; i++ {
		s, err := r.start(r.store, fmt.Sprintf("store-%d", i), r.serverFlags(false))
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s.setup.Seconds())
		if i < setupLaunches {
			s.stop()
		} else {
			main = s
		}
	}
	t, _, err := r.phase(main, false)
	if err != nil {
		main.stop()
		return result{}, err
	}
	hwm, err := statusMB(main.pid, "VmHWM")
	main.stop()
	if err != nil {
		return result{}, err
	}
	// cpu_ms_per_request divides the main server's CPU by the operations
	// it completed; the probe's appends ran on the auxiliary server.
	mainOps := t.completed()
	for _, a := range t.appends {
		if a.ok {
			mainOps++
		}
	}
	if r.workload != "ingest-mixed" {
		t.appends, t.writerWall = probe.appends, probe.writerWall
	}

	okMS, failed := latencies(t)
	p50, p90, err := latencyQuantiles(okMS, failed, float64(clientTimeout.Milliseconds()))
	if err != nil {
		return result{}, err
	}
	var appendMS []float64
	libs := 0
	for _, a := range t.appends {
		if a.ok {
			appendMS = append(appendMS, a.ms)
			libs += a.libs
		} else {
			failed++
		}
	}
	vals := map[string]float64{
		"setup_s":            median(setups),
		"requests_per_s":     ratio(float64(t.completed()), t.readWall.Seconds()),
		"latency_p50_ms":     p50,
		"latency_p90_ms":     p90,
		"cpu_ms_per_request": ratio(t.cpuS*1000, float64(mainOps)),
		"peak_rss_mb":        hwm,
		"append_p50_ms":      median(appendMS),
		"libraries_per_s":    ratio(float64(libs), t.writerWall.Seconds()),
	}
	r.record["setups_s"] = setups
	r.record["requests"] = len(t.samples)
	r.record["appends"] = len(t.appends)
	r.record["timed_s"] = t.wall.Seconds()
	res := result{Correct: len(r.ck.failed()) == 0, Attempted: len(t.samples) + len(t.appends), Failed: failed, Metrics: map[string]metric{}}
	for k, v := range vals {
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	return res, nil
}

// latencies returns the client latencies of the requests that passed
// every check and the count of those that did not.
func latencies(t *timed) ([]float64, int) {
	var ok []float64
	failed := 0
	for _, s := range t.samples {
		if s.ok {
			ok = append(ok, s.ex.ms())
		} else {
			failed++
		}
	}
	return ok, failed
}

// auxChecks runs the auxiliary server's work: the golden comparison,
// then, for the workloads whose server does not ingest, the append probe
// that measures append_p50_ms and libraries_per_s there. The probe posts
// the first probeBatches of the run's batches back to back, with no reads
// beside them.
func (r *runner) auxChecks(s *server, probe *timed) error {
	c := newHTTPClient(s.base)
	defer c.close()
	start := time.Now()
	bad, err := checkGolden(c, r.workers, filepath.Join(r.root, goldenPath), goldenHalf(r.seed), false)
	r.record["golden_s"] = time.Since(start).Seconds()
	if err != nil {
		return err
	}
	for _, b := range bad {
		r.ck.violate("%s", b)
	}
	if r.workload == "ingest-mixed" {
		return nil
	}
	gens, err := baseGeneration(c)
	if err != nil {
		return err
	}
	gens.moving = true
	start = time.Now()
	for _, b := range r.batches[:probeBatches] {
		probe.appends = append(probe.appends, postBatch(c, r.ck, b, batchSize, gens, s.pid))
	}
	probe.writerWall = time.Since(start)
	r.record["probe_s"] = probe.writerWall.Seconds()
	return nil
}

// runTraced runs the workload once on a fresh server started with
// -debug, reading the server's introspection endpoints around the timed
// phase and the operator spans after every computed reply.
func (r *runner) runTraced() (result, error) {
	s, err := r.start(r.store, "traced", r.serverFlags(true))
	if err != nil {
		return result{}, err
	}
	t, cs, err := r.phase(s, true)
	if err != nil {
		s.stop()
		return result{}, err
	}
	ctl := newHTTPClient(s.base)
	nodes := 0
	for _, sid := range t.sessions {
		var lineage []json.RawMessage
		if err := ctl.getJSON("/session/"+sid+"/lineage", &lineage); err != nil {
			s.stop()
			return result{}, err
		}
		nodes += len(lineage)
	}
	ctl.close()
	s.stop()

	m := layerMetrics(layerInput{t: t, before: cs[0], after: cs[1], lineageNodes: nodes})
	printBreakdown(os.Stdout, t)
	_, failed := latencies(t)
	for _, a := range t.appends {
		if !a.ok {
			failed++
		}
	}
	if n := m["trace.unreconciled"]; n > 0 {
		r.ck.violate("traced breakdown: %.0f computed replies do not reconcile with their spans", n)
	}
	r.record["requests"] = len(t.samples)
	r.record["appends"] = len(t.appends)
	r.record["timed_s"] = t.wall.Seconds()
	res := result{Correct: len(r.ck.failed()) == 0, Attempted: len(t.samples) + len(t.appends), Failed: failed, Metrics: map[string]metric{}}
	for k, unit := range layerUnits {
		v, ok := m[k]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not computed", k)
		}
		res.Metrics[k] = metric{Value: v, Unit: unit}
	}
	return res, nil
}

// recordGolden writes the golden fingerprint file from a server over the
// default seed's corpus.
func (r *runner) recordGolden() error {
	s, err := r.start(r.golden, "golden", r.auxFlags())
	if err != nil {
		return err
	}
	defer s.stop()
	_, err = checkGolden(newHTTPClient(s.base), r.workers, filepath.Join(r.root, goldenPath), goldenRequests(), true)
	return err
}

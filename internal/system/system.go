package system

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gea/internal/admission"
	"gea/internal/clean"
	"gea/internal/core"
	"gea/internal/exec"
	"gea/internal/fascicle"
	"gea/internal/genedb"
	"gea/internal/ingest"
	"gea/internal/lineage"
	"gea/internal/obs"
	"gea/internal/relational"
	"gea/internal/rescache"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

// Options configures a GEA session.
type Options struct {
	// User is the account name recorded on catalog rows.
	User string
	// Clean configures pre-processing; the zero value means the thesis
	// defaults (minimum tolerance 1, normalize to 300,000).
	Clean clean.Options
	// SkipCleaning loads the corpus as-is.
	SkipCleaning bool
	// Catalog optionally seeds the gene databases from the generator's
	// ground truth; nil disables genedb integration.
	Catalog *sagegen.Catalog
	// GeneDBSeed seeds the synthetic auxiliary databases.
	GeneDBSeed int64
	// MaxConcurrent bounds how many heavy operations (mining, diffs) may
	// run at once; further callers queue for an admission slot. Zero means
	// the default of 4.
	MaxConcurrent int
	// MaxQueue bounds how many callers may wait for an admission slot;
	// one more is rejected immediately with *admission.ErrOverload. Zero
	// means the default of 16.
	MaxQueue int
	// AdmitTimeout bounds how long a caller queues for an admission slot
	// before failing with *ErrBusy. Zero means the default of 10s.
	AdmitTimeout time.Duration
	// DegradedBudget caps otherwise-unlimited request budgets while the
	// admission queue is Degraded or Saturated (ShapeLimits); zero
	// leaves them unlimited. The queue tips into those states at depths
	// derived from MaxQueue; see admission.New.
	DegradedBudget int64
	// AdmissionMetrics optionally records admission queue gauges,
	// counters and wait times; nil disables instrumentation.
	AdmissionMetrics *obs.Registry
	// ResultCache enables the generation-keyed result cache behind
	// CachedQueryCtx: identical (generation, operator, params) requests
	// are served from cache and single-flighted while in flight. Nil
	// (the default) disables caching; the pointed-to zero value selects
	// the rescache defaults.
	ResultCache *rescache.Options
	// TenantPolicy enables per-tenant work-budget envelopes on top of
	// the shared admission queue (CachedQueryCtx): a tenant over its
	// envelope has its budgets shaped down exactly like queue-wide
	// degradation, so one heavy tenant degrades itself before degrading
	// the fleet. Nil disables tenant shaping.
	TenantPolicy *admission.TenantPolicy
	// Ingest enables the streaming append path: the session is built on
	// an ingest.View, and IngestAppendCtx accepts batches of new
	// libraries at runtime, rebuilding the view from the grown raw
	// corpus, committing the batch through the configured append store
	// and swapping the new view in one generation step. Nil (the
	// default) keeps the classic frozen-corpus behavior. Both paths
	// clean with Clean. When set, SkipCleaning is ignored: every
	// generation is cleaned.
	Ingest *IngestOptions
	// Workers is the default intra-operation worker count for sharded
	// evaluation; <= 0 means 1 (sequential). It composes with
	// MaxConcurrent without deadlock risk: workers are plain goroutines
	// inside an operation that already holds its admission slot, and they
	// never touch the admission semaphore themselves. Results are
	// bit-identical at any setting. An explicit exec.Limits.Workers on a
	// Ctx call overrides this default.
	Workers int
}

// System is one GEA session over a cleaned corpus. Registry access is
// serialized by an internal mutex, so a System is safe for concurrent use;
// heavy operations (mining, diffs) additionally pass through a bounded
// FIFO admission queue so at most MaxConcurrent compute at once — up to
// MaxQueue further callers wait (giving up with *ErrBusy after
// AdmitTimeout), and past that callers are rejected immediately with
// *admission.ErrOverload. The exported Store, Lineage and Data fields
// are not themselves synchronized: direct access to them concurrently
// with session operations needs external care.
type System struct {
	User        string
	Store       *relational.Store
	Lineage     *lineage.Graph
	GeneDB      *genedb.DB
	Data        *sage.Dataset
	CleanReport *clean.Report
	// LoadReport lists artifacts a salvaging LoadSession had to skip; nil
	// for sessions built fresh with New, non-nil (possibly empty) after a
	// LoadSession.
	LoadReport *LoadReport

	datasets   map[string]*sage.Dataset
	tolerances map[string]map[sage.TagID]float64
	fascicles  map[string]*core.MineResult
	sumys      map[string]*core.Sumy
	enums      map[string]*core.Enum
	gaps       map[string]*core.Gap
	// runCount disambiguates repeated mining runs with the same prefix.
	runCount map[string]int
	// foundPure caches FindPureFascicle results per dataset+property.
	foundPure map[string]string
	// bornGen records the corpus generation each derived artifact was
	// computed at (only when ingestion is enabled); Fascicle and Gap
	// reads compare it against the live generation and return
	// *StaleError after an append moves the corpus on.
	bornGen map[string]uint64

	// view is the ingest view when Options.Ingest was set; generation
	// counts committed corpus generations (starting at 1).
	// Readers snapshot both under mu and then work lock-free on the
	// immutable view: an in-flight operator keeps its generation even
	// while an append commits the next one.
	view       *ingest.View
	generation uint64
	// ingestStore is the durable append store; ingestMetrics feeds the
	// ingest.* series. Both nil unless ingestion is enabled.
	ingestStore   *ingest.Store
	ingestMetrics *obs.Registry
	// cleanOpts is Options.Clean with its zero value resolved to the
	// thesis defaults; every append cleans with it.
	cleanOpts clean.Options
	// ingestMu serializes appends end to end (screen, apply, commit)
	// without blocking readers, who only need mu for the swap window.
	ingestMu sync.Mutex

	// mu serializes access to the registries, catalog and lineage.
	mu sync.Mutex
	// queue is the bounded FIFO admission queue for heavy operations;
	// see internal/admission.
	queue *admission.Queue
	// tenants is the per-tenant envelope governor; nil (the valid no-op
	// governor) unless Options.TenantPolicy was set.
	tenants *admission.Tenants
	// rescache is the generation-keyed result cache; nil unless
	// Options.ResultCache was set.
	rescache *rescache.Cache
	// workers is the session default for exec.Limits.Workers; see
	// Options.Workers.
	workers int
}

// RootDataset is the lineage name of the full cleaned data set.
const RootDataset = "SAGE"

// New builds a session from a raw corpus: cleaning, dense assembly, catalog
// initialization and lineage roots.
func New(corpus *sage.Corpus, opts Options) (*System, error) {
	if opts.User == "" {
		opts.User = "gea"
	}
	cleanOpts := opts.Clean
	if cleanOpts.MinTolerance == 0 && cleanOpts.ScaleTo == 0 {
		cleanOpts = clean.DefaultOptions()
	}
	var (
		cleaned *sage.Corpus
		report  *clean.Report
		view    *ingest.View
		err     error
	)
	switch {
	case opts.Ingest != nil:
		view, err = ingest.Build(exec.Background(), corpus, cleanOpts)
		if err != nil {
			return nil, err
		}
		report = view.Report
	case opts.SkipCleaning:
		cleaned = corpus
	default:
		cleaned, report, err = clean.Clean(corpus, cleanOpts)
		if err != nil {
			return nil, err
		}
	}
	var d *sage.Dataset
	if view != nil {
		d = view.Data
	} else {
		d = sage.Build(cleaned)
	}
	sys := &System{
		User:        opts.User,
		Store:       relational.NewStore(),
		Lineage:     lineage.NewGraph(),
		Data:        d,
		CleanReport: report,
		datasets:    map[string]*sage.Dataset{RootDataset: d},
		tolerances:  map[string]map[sage.TagID]float64{},
		fascicles:   map[string]*core.MineResult{},
		sumys:       map[string]*core.Sumy{},
		enums:       map[string]*core.Enum{},
		gaps:        map[string]*core.Gap{},
		runCount:    map[string]int{},
		foundPure:   map[string]string{},
		bornGen:     map[string]uint64{},
		workers:     opts.Workers,
	}
	if opts.ResultCache != nil {
		sys.rescache = rescache.New(*opts.ResultCache)
	}
	if opts.TenantPolicy != nil {
		sys.tenants = admission.NewTenants(*opts.TenantPolicy)
	}
	if view != nil {
		sys.view = view
		sys.generation = 1
		sys.ingestStore = opts.Ingest.Store
		sys.ingestMetrics = opts.Ingest.Metrics
		sys.cleanOpts = cleanOpts
		if sys.ingestMetrics != nil {
			sys.ingestMetrics.Gauge("ingest.generation").Set(1)
		}
	}
	sys.initAdmission(opts)
	if err := initCatalog(sys.Store); err != nil {
		return nil, err
	}
	if err := loadLibrariesRelation(sys.Store, d); err != nil {
		return nil, err
	}
	if _, err := sys.Lineage.Record(RootDataset, lineage.KindDataset, "load",
		map[string]string{"libraries": fmt.Sprint(d.NumLibraries()), "tags": fmt.Sprint(d.NumTags())}); err != nil {
		return nil, err
	}
	if opts.Catalog != nil {
		gdb, err := genedb.Build(opts.Catalog, opts.GeneDBSeed)
		if err != nil {
			return nil, err
		}
		sys.GeneDB = gdb
	}
	return sys, nil
}

// ErrExists is wrapped by creation methods when a name is already taken —
// the redundancy check of Section 4.4.5.2; the caller decides whether to
// delete and recreate.
type ErrExists struct{ Name string }

func (e ErrExists) Error() string { return fmt.Sprintf("system: %q already exists", e.Name) }

func (s *System) checkFresh(name string) error {
	if s.Lineage.Has(name) {
		return ErrExists{Name: name}
	}
	return nil
}

// Dataset returns a named dataset.
func (s *System) Dataset(name string) (*sage.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.datasetLocked(name)
}

func (s *System) datasetLocked(name string) (*sage.Dataset, error) {
	d, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("system: no dataset %q", name)
	}
	return d, nil
}

// Sumy returns a named SUMY table.
func (s *System) Sumy(name string) (*core.Sumy, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sumyLocked(name)
}

func (s *System) sumyLocked(name string) (*core.Sumy, error) {
	v, ok := s.sumys[name]
	if !ok {
		return nil, fmt.Errorf("system: no SUMY table %q", name)
	}
	return v, nil
}

// Enum returns a named ENUM table.
func (s *System) Enum(name string) (*core.Enum, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.enums[name]
	if !ok {
		return nil, fmt.Errorf("system: no ENUM table %q", name)
	}
	return v, nil
}

// Gap returns a named GAP table. After an ingestion commit moves the
// corpus past the generation the table was computed at, the read fails
// with *StaleError rather than silently serving results about an older
// corpus; recompute (or read the generation-suffixed lineage) instead.
func (s *System) Gap(name string) (*core.Gap, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.staleLocked(name); err != nil {
		return nil, err
	}
	return s.gapLocked(name)
}

func (s *System) gapLocked(name string) (*core.Gap, error) {
	v, ok := s.gaps[name]
	if !ok {
		return nil, fmt.Errorf("system: no GAP table %q", name)
	}
	return v, nil
}

// Fascicle returns a named mined fascicle. Like Gap, a read after the
// corpus generation moved past the mine fails with *StaleError.
func (s *System) Fascicle(name string) (*core.MineResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.staleLocked(name); err != nil {
		return nil, err
	}
	return s.fascicleLocked(name)
}

func (s *System) fascicleLocked(name string) (*core.MineResult, error) {
	v, ok := s.fascicles[name]
	if !ok {
		return nil, fmt.Errorf("system: no fascicle %q", name)
	}
	return v, nil
}

// RegisterSumy adds an externally built SUMY table (e.g. a selection result)
// to the session under lineage tracking.
func (s *System) RegisterSumy(v *core.Sumy, op string, inputs ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFresh(v.Name); err != nil {
		return err
	}
	if _, err := s.Lineage.Record(v.Name, lineage.KindSumy, op, nil, inputs...); err != nil {
		return err
	}
	s.sumys[v.Name] = v
	return nil
}

// RegisterGap adds an externally built GAP table to the session.
func (s *System) RegisterGap(v *core.Gap, op string, inputs ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFresh(v.Name); err != nil {
		return err
	}
	if _, err := s.Lineage.Record(v.Name, lineage.KindGap, op, nil, inputs...); err != nil {
		return err
	}
	s.gaps[v.Name] = v
	return nil
}

// CreateTissueDataset materializes the system-defined tissue-type data set
// (Figure 4.4); its lineage name is the tissue name.
func (s *System) CreateTissueDataset(tissue string) (*sage.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFresh(tissue); err != nil {
		return nil, err
	}
	d, err := s.Data.SubsetByTissue(tissue)
	if err != nil {
		return nil, err
	}
	s.datasets[tissue] = d
	if _, err := s.Lineage.Record(tissue, lineage.KindDataset, "select-tissue",
		map[string]string{"tissue": tissue}, RootDataset); err != nil {
		return nil, err
	}
	tci, err := s.Store.Get(TblTypeCreateInfo)
	if err != nil {
		return nil, err
	}
	tci.MustInsert(relational.S(s.User), relational.S(tissue), relational.S(tissue+"Table"), relational.I(1))
	return d, nil
}

// CreateCustomDataset materializes a user-defined tissue type from library
// names (Figure 4.15).
func (s *System) CreateCustomDataset(name string, libNames []string) (*sage.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFresh(name); err != nil {
		return nil, err
	}
	d, err := s.Data.SubsetByNames(libNames)
	if err != nil {
		return nil, err
	}
	s.datasets[name] = d
	if _, err := s.Lineage.Record(name, lineage.KindDataset, "select-custom",
		map[string]string{"libraries": fmt.Sprint(len(libNames))}, RootDataset); err != nil {
		return nil, err
	}
	tci, err := s.Store.Get(TblTypeCreateInfo)
	if err != nil {
		return nil, err
	}
	tci.MustInsert(relational.S(s.User), relational.S(name), relational.S(name+"Table"), relational.I(1))
	return d, nil
}

// GenerateMetadata builds and stores the tolerance vector for a dataset
// (Figure 4.5). percent is the compact tolerance as a percentage of each
// attribute's width.
func (s *System) GenerateMetadata(datasetName string, percent float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.datasetLocked(datasetName)
	if err != nil {
		return err
	}
	tol, err := clean.ToleranceVector(d, percent)
	if err != nil {
		return err
	}
	s.tolerances[datasetName] = tol
	return nil
}

// FascicleOptions mirror the calculate-fascicles window (Figure 4.6).
type FascicleOptions struct {
	K         int // number of compact attributes
	MinSize   int // minimum libraries per fascicle
	BatchSize int
	Algorithm core.Algorithm
}

// CalculateFascicles mines a dataset and registers each fascicle (with its
// SUMY and ENUM forms) as <dataset><K>k_<i>; it returns the names.
// GenerateMetadata must have been called for the dataset.
func (s *System) CalculateFascicles(datasetName string, opts FascicleOptions) ([]string, error) {
	names, _, _, err := s.calculateFascicles(s.background(), datasetName, opts)
	return names, err
}

// calculateFascicles is the metered implementation behind both the legacy
// method and CalculateFasciclesCtx; it returns the registered names with
// their results, index-aligned. The registry lock is held only around
// lookup and registration; the mining itself — the expensive part — runs
// unlocked, panic-isolated and metered by the caller's Ctl.
func (s *System) calculateFascicles(c *exec.Ctl, datasetName string, opts FascicleOptions) (_ []string, _ []core.MineResult, partial bool, err error) {
	sp := c.StartSpan("system.CalculateFascicles")
	sp.SetInput("dataset %s, k=%d", datasetName, opts.K)
	defer c.EndSpan(sp, &partial, &err)
	s.mu.Lock()
	d, err := s.datasetLocked(datasetName)
	if err != nil {
		s.mu.Unlock()
		return nil, nil, false, err
	}
	// The generation the mine describes is the one d was snapshotted at,
	// not the one current when registration finally runs — an append may
	// commit while the mine computes.
	genAtSnap := s.generation
	tol, ok := s.tolerances[datasetName]
	if !ok {
		s.mu.Unlock()
		return nil, nil, false, fmt.Errorf("system: generate metadata for %q before calculating fascicles", datasetName)
	}
	prefix := fasciclePrefix(datasetName, opts.K)
	// Repeating a run with the same parameters gets a fresh run suffix, as
	// the GUI would append to the fascicles list rather than overwrite.
	base := prefix
	if n := s.runCount[base]; n > 0 {
		prefix = fmt.Sprintf("%s_r%d", base, n)
	}
	s.runCount[base]++
	s.mu.Unlock()

	params := fascicle.Params{
		K: opts.K, Tolerance: tol, MinSize: opts.MinSize, BatchSize: opts.BatchSize,
	}
	var results []core.MineResult
	err = exec.Guard("system.CalculateFascicles", prefix, func() error {
		var err error
		results, partial, err = core.MineWith(c, prefix, d, params, opts.Algorithm)
		return err
	})
	if err != nil {
		return nil, nil, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	fasFile, err := s.Store.Get(TblFasFile)
	if err != nil {
		return nil, nil, false, err
	}
	fasInfo, err := s.Store.Get(TblFasInfo)
	if err != nil {
		return nil, nil, false, err
	}
	fasLib, err := s.Store.Get(TblFasLib)
	if err != nil {
		return nil, nil, false, err
	}
	fasFile.MustInsert(relational.S(s.User), relational.S(prefix), relational.S(datasetName),
		relational.I(int64(opts.K)), relational.S(datasetName+"file.b"),
		relational.S(datasetName+"file.meta"), relational.I(int64(opts.BatchSize)),
		relational.I(int64(opts.MinSize)))

	lineageParams := map[string]string{
		"k": fmt.Sprint(opts.K), "minSize": fmt.Sprint(opts.MinSize),
		"batch": fmt.Sprint(opts.BatchSize), "algorithm": opts.Algorithm.String(),
	}
	if partial {
		// A budget-stopped run is registered as such: the lineage records
		// that the fascicle list may be incomplete.
		lineageParams["partial"] = "true"
	}
	if genAtSnap > 0 {
		lineageParams["generation"] = fmt.Sprint(genAtSnap)
	}
	names := fascicleNames(prefix, len(results))
	//lint:gea ctlcharge -- registers already-mined results; a mid-loop stop would strand half-registered fascicles in the lineage and relational stores
	for i, name := range names {
		r := results[i]
		if err := s.checkFresh(name); err != nil {
			return nil, nil, false, err
		}
		if _, err := s.Lineage.Record(name, lineage.KindFascicle, "mine", lineageParams, datasetName); err != nil {
			return nil, nil, false, err
		}
		s.fascicles[name] = &r
		s.noteBornLocked(name, genAtSnap)
		fasInfo.MustInsert(relational.S(s.User), relational.S(name), relational.S(prefix),
			relational.B(r.Enum.IsPure(sage.PropCancer)), relational.B(r.Enum.IsPure(sage.PropNormal)),
			relational.B(r.Enum.IsPure(sage.PropBulkTissue)), relational.B(r.Enum.IsPure(sage.PropCellLine)))
		for _, row := range r.Fascicle.Rows {
			fasLib.MustInsert(relational.S(s.User), relational.S(name), relational.I(int64(d.Libs[row].ID)))
		}
	}
	return names, results, partial, nil
}

// PurityCheck reports whether the fascicle is pure for the property
// (Figure 4.8).
func (s *System) PurityCheck(fasName string, p sage.Property) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := s.fascicleLocked(fasName)
	if err != nil {
		return false, err
	}
	return r.Enum.IsPure(p), nil
}

// CaseGroups names the three SUMY/ENUM pairs of the case-study setup.
type CaseGroups struct {
	// InFascicle holds the fascicle's own libraries (e.g.
	// brain35k_4CancerFasTbl).
	InFascicle string
	// SameNotInFascicle holds libraries with the fascicle's property that
	// are outside it (e.g. brain35k_4CanNotInFasTbl).
	SameNotInFascicle string
	// Opposite holds the libraries with the opposite neoplastic state (e.g.
	// brain35k_4NormalTable).
	Opposite string
}

// FormSUM builds, for a pure cancerous or pure normal fascicle, the three
// control-group SUMY tables of case study 1 over the fascicle's compact tags
// (Figure 4.8's formSUM button). Non-pure fascicles are rejected: "if a
// fascicle is non-pure ... the analysis of this fascicle is terminated".
func (s *System) FormSUM(fasName, datasetName string) (CaseGroups, error) {
	s.mu.Lock()
	r, err := s.fascicleLocked(fasName)
	if err != nil {
		s.mu.Unlock()
		return CaseGroups{}, err
	}
	d, err := s.datasetLocked(datasetName)
	if err != nil {
		s.mu.Unlock()
		return CaseGroups{}, err
	}
	if r.Enum.Data != d {
		s.mu.Unlock()
		return CaseGroups{}, fmt.Errorf("system: fascicle %s was mined on a different dataset than %q", fasName, datasetName)
	}
	var inProp, outProp sage.Property
	var inLabel, sameLabel, outLabel string
	switch {
	case r.Enum.IsPure(sage.PropCancer):
		inProp, outProp = sage.PropCancer, sage.PropNormal
		inLabel, sameLabel, outLabel = "CancerFasTbl", "CanNotInFasTbl", "NormalTable"
	case r.Enum.IsPure(sage.PropNormal):
		inProp, outProp = sage.PropNormal, sage.PropCancer
		inLabel, sameLabel, outLabel = "NormalFasTbl", "NorNotInFasTbl", "CancerTable"
	default:
		s.mu.Unlock()
		return CaseGroups{}, fmt.Errorf("system: fascicle %s is not pure; analysis terminated", fasName)
	}
	g := CaseGroups{
		InFascicle:        fasName + inLabel,
		SameNotInFascicle: fasName + sameLabel,
		Opposite:          fasName + outLabel,
	}
	// FormSUM is idempotent: if the three tables exist already (e.g. a
	// later case study revisits the same fascicle), return them.
	done, err := s.caseGroupsLocked(g)
	s.mu.Unlock()
	if err != nil {
		return CaseGroups{}, err
	}
	if done {
		return g, nil
	}

	inFas := map[int]bool{}
	for _, row := range r.Fascicle.Rows {
		inFas[row] = true
	}
	var sameRows, oppRows []int
	for i, m := range d.Libs {
		switch {
		case inFas[i]:
		case m.HasProperty(inProp):
			sameRows = append(sameRows, i)
		case m.HasProperty(outProp):
			oppRows = append(oppRows, i)
		}
	}
	type group struct {
		name, label string
		rows        []int
		enum        *core.Enum
		sumy        *core.Sumy
	}
	groups := []*group{
		{name: g.InFascicle, label: inLabel, rows: r.Fascicle.Rows},
		{name: g.SameNotInFascicle, label: sameLabel, rows: sameRows},
		{name: g.Opposite, label: outLabel, rows: oppRows},
	}
	// Aggregate outside the registry lock, so other session calls do not
	// wait behind the three SUMYs.
	for _, gr := range groups {
		if gr.enum, err = core.NewEnum(gr.name+"Enum", d, gr.rows, r.Fascicle.CompactCols); err != nil {
			return CaseGroups{}, err
		}
		if gr.sumy, _, err = core.AggregateWith(exec.Background(), gr.name, gr.enum, core.AggregateOptions{}); err != nil {
			return CaseGroups{}, err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// A racing FormSUM on the same fascicle may have registered the
	// tables while these aggregated; its tables are the answer.
	if done, err := s.caseGroupsLocked(g); err != nil {
		return CaseGroups{}, err
	} else if done {
		return g, nil
	}
	for _, gr := range groups {
		if _, err := s.Lineage.Record(gr.name, lineage.KindSumy, "aggregate",
			map[string]string{"libraries": fmt.Sprint(len(gr.rows))}, fasName); err != nil {
			return CaseGroups{}, err
		}
		s.enums[gr.name+"Enum"] = gr.enum
		s.sumys[gr.name] = gr.sumy
		if err := s.recordSumCatalog(gr.name, fasName, gr.label, d, gr.rows); err != nil {
			return CaseGroups{}, err
		}
	}
	return g, nil
}

// caseGroupsLocked reports whether all three of g's SUMY tables are
// registered already. It fails with ErrExists when only some of the
// names are taken, since FormSUM would then collide part way through.
func (s *System) caseGroupsLocked(g CaseGroups) (bool, error) {
	names := []string{g.InFascicle, g.SameNotInFascicle, g.Opposite}
	registered := 0
	for _, n := range names {
		if _, err := s.sumyLocked(n); err == nil {
			registered++
		}
	}
	if registered == len(names) {
		return true, nil
	}
	for _, n := range names {
		if err := s.checkFresh(n); err != nil {
			return false, err
		}
	}
	return false, nil
}

func (s *System) recordSumCatalog(name, fasName, category string, d *sage.Dataset, rows []int) error {
	sumInfo, err := s.Store.Get(TblSumInfo)
	if err != nil {
		return err
	}
	sumLib, err := s.Store.Get(TblSumLib)
	if err != nil {
		return err
	}
	sumInfo.MustInsert(relational.S(s.User), relational.S(name), relational.S(fasName),
		relational.S(category), relational.I(1))
	for _, r := range rows {
		sumLib.MustInsert(relational.S(s.User), relational.S(name), relational.I(int64(d.Libs[r].ID)))
	}
	return nil
}

// CreateGap runs diff() on two registered SUMY tables and registers the
// result (Figure 4.9's Find GAP button).
func (s *System) CreateGap(name, sumy1, sumy2 string) (*core.Gap, error) {
	g, _, err := s.createGap(s.background(), name, sumy1, sumy2)
	return g, err
}

// createGap computes the diff unlocked and metered, holding the registry
// lock only for lookup and registration.
func (s *System) createGap(c *exec.Ctl, name, sumy1, sumy2 string) (_ *core.Gap, partial bool, err error) {
	sp := c.StartSpan("system.CreateGap")
	sp.SetInput("%s = diff(%s, %s)", name, sumy1, sumy2)
	defer c.EndSpan(sp, &partial, &err)
	s.mu.Lock()
	if err := s.checkFresh(name); err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	a, err := s.sumyLocked(sumy1)
	if err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	b, err := s.sumyLocked(sumy2)
	if err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	genAtSnap := s.generation
	s.mu.Unlock()

	var g *core.Gap
	err = exec.Guard("system.CreateGap", name, func() error {
		var err error
		g, partial, err = core.DiffWith(c, name, a, b)
		return err
	})
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// The name may have been taken while the diff computed; losing that
	// race is reported the same way as an up-front collision.
	if err := s.checkFresh(name); err != nil {
		return nil, false, err
	}
	params := map[string]string{}
	if partial {
		params["partial"] = "true"
	}
	if genAtSnap > 0 {
		params["generation"] = fmt.Sprint(genAtSnap)
	}
	if len(params) == 0 {
		params = nil
	}
	if _, err := s.Lineage.Record(name, lineage.KindGap, "diff", params, sumy1, sumy2); err != nil {
		return nil, false, err
	}
	s.gaps[name] = g
	s.noteBornLocked(name, genAtSnap)
	gapInfo, err := s.Store.Get(TblGapInfo)
	if err != nil {
		return nil, false, err
	}
	gapInfo.MustInsert(relational.S(s.User), relational.S(name), relational.S("gap"),
		relational.I(1), relational.S(sumy1), relational.S(sumy2))
	return g, partial, nil
}

// CalculateTopGap builds the top-x gap table <gap>_<x> (Figure 4.19).
func (s *System) CalculateTopGap(gapName string, x int) (*core.Gap, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, err := s.gapLocked(gapName)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s_%d", gapName, x)
	if err := s.checkFresh(name); err != nil {
		return nil, err
	}
	top, err := core.TopGaps(name, g, 0, x)
	if err != nil {
		return nil, err
	}
	if _, err := s.Lineage.Record(name, lineage.KindTopGap, "topgap",
		map[string]string{"x": fmt.Sprint(x)}, gapName); err != nil {
		return nil, err
	}
	s.gaps[name] = top
	s.noteBornLocked(name, s.generation)
	topRec, err := s.Store.Get(TblTopRec)
	if err != nil {
		return nil, err
	}
	topRec.MustInsert(relational.S(s.User), relational.S(name), relational.S(gapName), relational.I(int64(x)))
	return top, nil
}

// CompareGaps combines two GAP tables with a set operation and registers the
// compare table (Figure 4.13).
func (s *System) CompareGaps(name, gap1, gap2 string, op core.CompareOp) (*core.Gap, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFresh(name); err != nil {
		return nil, err
	}
	a, err := s.gapLocked(gap1)
	if err != nil {
		return nil, err
	}
	b, err := s.gapLocked(gap2)
	if err != nil {
		return nil, err
	}
	g, err := core.Compare(name, a, b, op)
	if err != nil {
		return nil, err
	}
	if _, err := s.Lineage.Record(name, lineage.KindCompare, "compare-"+op.String(), nil, gap1, gap2); err != nil {
		return nil, err
	}
	s.gaps[name] = g
	s.noteBornLocked(name, s.generation)
	compInfo, err := s.Store.Get(TblGapCompInfo)
	if err != nil {
		return nil, err
	}
	compInfo.MustInsert(relational.S(s.User), relational.S(name), relational.S("compare"),
		relational.S(gap1), relational.S(gap2), relational.S(op.String()))
	return g, nil
}

// DeleteCascade removes a node and everything derived from it from the
// session and the lineage — the second deletion option of Section 4.4.2. It
// returns the deleted names (the confirmation check of Section 4.4.5.3).
func (s *System) DeleteCascade(name string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	deleted, err := s.Lineage.DeleteCascade(name)
	if err != nil {
		return nil, err
	}
	for _, n := range deleted {
		delete(s.datasets, n)
		delete(s.fascicles, n)
		delete(s.sumys, n)
		delete(s.enums, n)
		delete(s.gaps, n)
		delete(s.bornGen, n)
	}
	return deleted, nil
}

// LibraryInfo answers the library-information search (Figure 4.23) by ID or
// name.
func (s *System) LibraryInfo(idOrName string) (sage.LibraryMeta, error) {
	for _, m := range s.Data.Libs {
		if m.Name == idOrName || fmt.Sprint(m.ID) == idOrName {
			return m, nil
		}
	}
	return sage.LibraryMeta{}, fmt.Errorf("system: no library %q", idOrName)
}

// TissueTypes answers the tissue-type search (Figure 4.24): tissue type ->
// library names.
func (s *System) TissueTypes() map[string][]string {
	out := map[string][]string{}
	for _, m := range s.Data.Libs {
		out[m.Tissue] = append(out[m.Tissue], m.Name)
	}
	for _, names := range out {
		sort.Strings(names)
	}
	return out
}

// FindPureFascicle automates the analyst's iteration of the case studies:
// starting from a strict compact-attribute requirement and loosening it, it
// mines the dataset until a fascicle pure for the property appears, and
// returns the tightest (most compact tags) such fascicle's name. The right
// k differs per tissue (the thesis stores a per-tissue threshold in CDInfo);
// scanning from strict to loose finds the highest k the data supports.
// GenerateMetadata must have been called for the dataset. It mines with the
// exact lattice miner; FindPureFascicleCtx takes the miner as a parameter.
func (s *System) FindPureFascicle(datasetName string, prop sage.Property, minSize int) (string, error) {
	name, _, err := s.findPureFascicle(s.background(), datasetName, prop, minSize, core.LatticeAlgorithm)
	return name, err
}

// findPureFascicle is the metered search shared by FindPureFascicle and
// FindPureFascicleCtx: scanPure over the registered dataset, each level
// registered by calculateFascicles. The found name is memoized per
// dataset, property, size and miner, and its threshold recorded in
// CDInfo.
func (s *System) findPureFascicle(c *exec.Ctl, datasetName string, prop sage.Property, minSize int, alg core.Algorithm) (_ string, partial bool, err error) {
	sp := c.StartSpan("system.FindPureFascicle")
	sp.SetInput("dataset %s, prop=%v, minSize=%d", datasetName, prop, minSize)
	defer c.EndSpan(sp, &partial, &err)
	cacheKey := fmt.Sprintf("%s|%v|%d|%v", datasetName, prop, minSize, alg)
	s.mu.Lock()
	if name, ok := s.foundPure[cacheKey]; ok {
		if _, err := s.fascicleLocked(name); err == nil && s.staleLocked(name) == nil {
			s.mu.Unlock()
			return name, false, nil
		}
		delete(s.foundPure, cacheKey) // deleted or gone stale since; redo the search
	}
	d, err := s.datasetLocked(datasetName)
	if err != nil {
		s.mu.Unlock()
		return "", false, err
	}
	if _, ok := s.tolerances[datasetName]; !ok {
		s.mu.Unlock()
		return "", false, fmt.Errorf("system: generate metadata for %q before mining", datasetName)
	}
	s.mu.Unlock()

	best, k, partial, err := scanPure(c, datasetName, d.NumTags(), prop, func(c *exec.Ctl, k int) ([]string, []core.MineResult, bool, error) {
		return s.calculateFascicles(c, datasetName, FascicleOptions{K: k, MinSize: minSize, Algorithm: alg})
	})
	if err != nil {
		return "", partial, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cd, err := s.Store.Get(TblCDInfo)
	if err != nil {
		return "", partial, err
	}
	cd.MustInsert(relational.S(datasetName), relational.I(int64(k)))
	s.foundPure[cacheKey] = best
	return best, partial, nil
}

// DropContents frees a derived GAP-family table's contents while keeping its
// lineage metadata — the first deletion option of Section 4.4.2 ("the user
// may choose to remove only the contents of a table ... If the user wants to
// re-generate the content of the table, the stored metadata can be used
// directly"). Only intermediate results (diff, top-gap and compare tables)
// are droppable; base tables and fascicles are not.
func (s *System) DropContents(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.gaps[name]; !ok {
		return fmt.Errorf("system: %q is not a droppable GAP-family table", name)
	}
	if err := s.Lineage.DropContents(name); err != nil {
		return err
	}
	delete(s.gaps, name)
	return nil
}

// Regenerate rebuilds a content-dropped table (and any dropped tables it
// depends on) by replaying the operations recorded in the lineage. Each
// replay reads its inputs under the registry lock, recomputes unlocked and
// registers its result under the lock again.
func (s *System) Regenerate(name string) (*core.Gap, error) {
	s.mu.Lock()
	plan, err := s.Lineage.RegenerationPlan(name)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for _, node := range plan {
		if err := s.regenerateNode(node); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gapLocked(name)
}

// regenerateNode replays one plan node if its contents are still
// dropped. A racing Regenerate of the same node registers the same gap.
func (s *System) regenerateNode(node *lineage.Node) error {
	s.mu.Lock()
	if !node.ContentsDropped {
		s.mu.Unlock()
		return nil
	}
	run, err := s.replayLocked(node)
	s.mu.Unlock()
	var g *core.Gap
	if err == nil {
		g, err = run()
	}
	if err != nil {
		return fmt.Errorf("system: regenerating %q: %v", node.Name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The node may have been deleted while it recomputed; then there is
	// nothing to register.
	if err := s.Lineage.MarkRegenerated(node.Name); err != nil {
		return err
	}
	s.gaps[node.Name] = g
	return nil
}

// replayLocked looks up the inputs of one recorded operation and returns
// the closure that re-executes it; the caller holds s.mu and runs the
// closure after releasing it.
func (s *System) replayLocked(node *lineage.Node) (func() (*core.Gap, error), error) {
	switch {
	case node.Operation == "diff":
		if len(node.Inputs) != 2 {
			return nil, fmt.Errorf("diff needs 2 inputs, recorded %d", len(node.Inputs))
		}
		a, err := s.sumyLocked(node.Inputs[0])
		if err != nil {
			return nil, err
		}
		b, err := s.sumyLocked(node.Inputs[1])
		if err != nil {
			return nil, err
		}
		return func() (*core.Gap, error) {
			g, _, err := core.DiffWith(exec.Background(), node.Name, a, b)
			return g, err
		}, nil
	case node.Operation == "topgap":
		if len(node.Inputs) != 1 {
			return nil, fmt.Errorf("topgap needs 1 input, recorded %d", len(node.Inputs))
		}
		x, err := strconv.Atoi(node.Params["x"])
		if err != nil {
			return nil, fmt.Errorf("topgap has no recorded x: %v", err)
		}
		g, err := s.gapLocked(node.Inputs[0])
		if err != nil {
			return nil, err
		}
		return func() (*core.Gap, error) { return core.TopGaps(node.Name, g, 0, x) }, nil
	case strings.HasPrefix(node.Operation, "compare-"):
		if len(node.Inputs) != 2 {
			return nil, fmt.Errorf("compare needs 2 inputs, recorded %d", len(node.Inputs))
		}
		var op core.CompareOp
		switch strings.TrimPrefix(node.Operation, "compare-") {
		case "union":
			op = core.OpUnion
		case "intersect":
			op = core.OpIntersect
		case "difference":
			op = core.OpDifference
		default:
			return nil, fmt.Errorf("unknown compare operation %q", node.Operation)
		}
		a, err := s.gapLocked(node.Inputs[0])
		if err != nil {
			return nil, err
		}
		b, err := s.gapLocked(node.Inputs[1])
		if err != nil {
			return nil, err
		}
		return func() (*core.Gap, error) { return core.Compare(node.Name, a, b, op) }, nil
	default:
		return nil, fmt.Errorf("operation %q is not replayable", node.Operation)
	}
}

// ListSumys lists the SUMY tables of a fascicle (Figure 4.9's Summary
// Lists, sorted by fascicle). An empty fascicle name lists all.
func (s *System) ListSumys(fascicle string) ([]string, error) {
	sumInfo, err := s.Store.Get(TblSumInfo)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, r := range sumInfo.Rows {
		if fascicle == "" || r[2].Str() == fascicle {
			out = append(out, r[1].Str())
		}
	}
	sort.Strings(out)
	return out, nil
}

// ListGaps lists the GAP tables derived (directly) from the named SUMY
// table, or all GAP tables when the name is empty (the Figure 4.19 GAP
// list).
func (s *System) ListGaps(sumy string) ([]string, error) {
	gapInfo, err := s.Store.Get(TblGapInfo)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, r := range gapInfo.Rows {
		if sumy == "" || r[4].Str() == sumy || r[5].Str() == sumy {
			out = append(out, r[1].Str())
		}
	}
	sort.Strings(out)
	return out, nil
}

// ListTopGaps lists the top-gap tables of a GAP table (the Figure 4.20 Top
// GAP list), or all when the name is empty.
func (s *System) ListTopGaps(gapName string) ([]string, error) {
	topRec, err := s.Store.Get(TblTopRec)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, r := range topRec.Rows {
		if gapName == "" || r[2].Str() == gapName {
			out = append(out, r[1].Str())
		}
	}
	sort.Strings(out)
	return out, nil
}

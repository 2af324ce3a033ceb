package session

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"gea/internal/clean"
	"gea/internal/core"
	"gea/internal/exec"
	"gea/internal/fascicle"
	"gea/internal/interval"
	"gea/internal/lineage"
	"gea/internal/sage"
	"gea/internal/system"
)

// Request is one operator invocation against a session. Params are
// operator-specific strings (parsed and canonicalized per op); Budget
// and Workers shape execution only and never reach the cache key —
// results are bit-identical at any worker count, and budget-stopped
// partials are never cached.
type Request struct {
	Op      string            `json:"op"`
	Params  map[string]string `json:"params,omitempty"`
	Budget  int64             `json:"budget,omitempty"`
	Workers int               `json:"workers,omitempty"`
}

// Response reports one run with the accounting that keeps cached and
// computed responses reconcilable.
type Response struct {
	Session    string `json:"session"`
	Op         string `json:"op"`
	Generation uint64 `json:"generation"`
	Units      int64  `json:"units"`
	Partial    bool   `json:"partial,omitempty"`
	// Source is "computed", "hit" or "shared"; Cached is its boolean
	// shorthand (true unless computed).
	Source    string `json:"source"`
	Cached    bool   `json:"cached"`
	Throttled bool   `json:"throttled,omitempty"`
	// WallNS is the server-side dispatch wall — admission, shaping and
	// the compute-or-cache-lookup — excluding response encoding, which
	// costs the same whether the result was computed or served from
	// cache. It is what a cold-vs-cached comparison should compare.
	WallNS int64 `json:"wall_ns"`
	// Node is the lineage node this run recorded.
	Node   string `json:"node"`
	Result any    `json:"result"`
}

// computeFn is what an op hands to System.CachedQueryCtx: a pure
// function of the metered Ctl and the generation's snapshot.
type computeFn = func(c *exec.Ctl, snap system.Snapshot) (any, int64, bool, error)

// opSpec is one entry of the operator catalog: build parses the raw
// request params into (canonical key params, compute closure). The key
// params must be plain data — the closure (which may capture
// predicates and other funcs) never reaches the canonicalizer.
type opSpec struct {
	kind  lineage.Kind
	build func(raw map[string]string) (any, computeFn, error)
}

// Ops lists the operators a session can run, sorted by name.
func Ops() []string {
	return []string{"aggregate", "diff", "mine", "populate", "rangesearch", "select", "topgap"}
}

var opTable = map[string]opSpec{
	"mine":        {kind: lineage.KindFascicle, build: buildMine},
	"aggregate":   {kind: lineage.KindSumy, build: buildAggregate},
	"diff":        {kind: lineage.KindGap, build: buildDiff},
	"populate":    {kind: lineage.KindEnum, build: buildPopulate},
	"select":      {kind: lineage.KindSumy, build: buildSelect},
	"rangesearch": {kind: lineage.KindCompare, build: buildRangeSearch},
	"topgap":      {kind: lineage.KindTopGap, build: buildTopGap},
}

// Run executes one operator for a session through the result cache,
// records a lineage node under the session's root, and returns the
// reconciled response. The session's idle timer is touched.
func (m *Manager) Run(ctx context.Context, id string, req Request) (*Response, error) {
	m.mu.Lock()
	s, err := m.lookupLocked(id)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	tenant := s.Tenant
	s.runs++
	runN := s.runs
	m.mu.Unlock()

	spec, ok := opTable[req.Op]
	if !ok {
		return nil, &ParamError{Param: "op", Reason: fmt.Sprintf("unknown operator %q (have %v)", req.Op, Ops())}
	}
	params, compute, err := spec.build(req.Params)
	if err != nil {
		return nil, err
	}
	m.runs.Add(1)

	lim := exec.Limits{Budget: req.Budget, Workers: req.Workers}
	dispatchStart := m.now()
	qr, err := m.sys.CachedQueryCtx(ctx, tenant, "session."+req.Op, params, lim, compute)
	if err != nil {
		return nil, err
	}
	wallNS := m.now().Sub(dispatchStart).Nanoseconds()

	node := fmt.Sprintf("%s/%s#%d", lineageRoot(id), req.Op, runN)
	lparams := map[string]string{
		"generation": fmt.Sprint(qr.Generation),
		"source":     qr.Source.String(),
	}
	if qr.Partial {
		lparams["partial"] = "true"
	}
	// Best-effort: a concurrent Close may have cascaded the root away.
	_ = m.sys.RecordQueryRun(node, spec.kind, req.Op, lparams, qr.Record, lineageRoot(id))

	return &Response{
		Session:    id,
		Op:         req.Op,
		Generation: qr.Generation,
		Units:      qr.Units,
		Partial:    qr.Partial,
		Source:     qr.Source.String(),
		Cached:     qr.Source.Cached(),
		Throttled:  qr.Throttled,
		WallNS:     wallNS,
		Node:       node,
		Result:     qr.Value,
	}, nil
}

// ---- parsing helpers ----------------------------------------------------

func paramInt(raw map[string]string, key string, def int) (int, error) {
	v, ok := raw[key]
	if !ok || v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, &ParamError{Param: key, Reason: fmt.Sprintf("not an integer: %q", v)}
	}
	return n, nil
}

// paramFloat parses an optional float param. NaN is a caller fault: it
// compares false against every bound, so a NaN would slip past range
// checks and compute against a meaningless interval. ±Inf are legal.
func paramFloat(raw map[string]string, key string, def float64) (float64, error) {
	v, ok := raw[key]
	if !ok || v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) {
		return 0, &ParamError{Param: key, Reason: fmt.Sprintf("not a number: %q", v)}
	}
	return f, nil
}

// paramTag parses an optional tag ID, 0 when absent; a value outside
// the TagID range is a caller fault rather than a silent wraparound.
func paramTag(raw map[string]string, key string) (int, error) {
	n, err := paramInt(raw, key, 0)
	if err != nil {
		return 0, err
	}
	if n < 0 || int64(n) > math.MaxUint32 {
		return 0, &ParamError{Param: key, Reason: fmt.Sprintf("tag ID %d out of [0, %d]", n, uint32(math.MaxUint32))}
	}
	return n, nil
}

func paramBool(raw map[string]string, key string) (bool, error) {
	v, ok := raw[key]
	if !ok || v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, &ParamError{Param: key, Reason: fmt.Sprintf("not a boolean: %q", v)}
	}
	return b, nil
}

func paramAlgorithm(raw map[string]string) (core.Algorithm, string, error) {
	switch raw["algorithm"] {
	case "", "greedy":
		return core.GreedyAlgorithm, "greedy", nil
	case "lattice":
		return core.LatticeAlgorithm, "lattice", nil
	default:
		return 0, "", &ParamError{Param: "algorithm", Reason: fmt.Sprintf("unknown algorithm %q (greedy or lattice)", raw["algorithm"])}
	}
}

// subsetOf scopes the snapshot to one tissue; an empty tissue is the
// whole corpus. An unknown tissue is a caller fault.
func subsetOf(data *sage.Dataset, tissue string) (*sage.Dataset, error) {
	if tissue == "" {
		return data, nil
	}
	sub, err := data.SubsetByTissue(tissue)
	if err != nil {
		return nil, &ParamError{Param: "tissue", Reason: err.Error()}
	}
	return sub, nil
}

// Rough retained-size estimates, charged against the cache's byte
// bound. Approximate by design — the bound is a memory-pressure valve,
// not an accountant.
func sumyBytes(s *core.Sumy) int64 { return int64(len(s.Rows))*64 + 128 }
func gapBytes(g *core.Gap) int64   { return int64(len(g.Rows))*48 + 128 }
func enumBytes(e *core.Enum) int64 { return int64(len(e.Rows)+len(e.Cols))*8 + 64 }

// aggregateOf is the aggregate op's compute: tissue → SUMY. Result
// names are pure functions of the params so repeated computes are
// DeepEqual-identical.
func aggregateOf(p aggregateParams, data *sage.Dataset) system.SubCompute {
	return func(c *exec.Ctl) (any, int64, bool, error) {
		sub, err := subsetOf(data, p.Tissue)
		if err != nil {
			return nil, 0, false, err
		}
		label := p.Tissue
		if label == "" {
			label = "corpus"
		}
		e := core.FullEnum("session.enum:"+label, sub)
		sm, partial, err := core.AggregateWith(c, "session.agg:"+label, e, core.AggregateOptions{WithMedian: p.WithMedian})
		if err != nil {
			return nil, 0, false, err
		}
		return sm, sumyBytes(sm), partial, nil
	}
}

// sharedAggregate is the tissue → SUMY step every composite op (diff,
// topgap, select, populate, rangesearch) starts with. It is looked up
// in the result cache under the key an explicit aggregate request
// uses, so each generation computes each tissue's SUMY once.
func sharedAggregate(c *exec.Ctl, snap system.Snapshot, tissue string) (*core.Sumy, bool, error) {
	p := aggregateParams{Tissue: tissue}
	v, partial, err := snap.Shared(c, "session.aggregate", p, aggregateOf(p, snap.Data))
	if err != nil {
		return nil, false, err
	}
	return v.(*core.Sumy), partial, nil
}

// ---- operator builders ---------------------------------------------------

type mineParams struct {
	Tissue    string
	K         int
	MinSize   int
	TolPct    float64
	Algorithm string
}

func buildMine(raw map[string]string) (any, computeFn, error) {
	k, err := paramInt(raw, "k", 0)
	if err != nil {
		return nil, nil, err
	}
	minSize, err := paramInt(raw, "minsize", 3)
	if err != nil {
		return nil, nil, err
	}
	if minSize < 1 {
		return nil, nil, &ParamError{Param: "minsize", Reason: fmt.Sprintf("must be at least 1, got %d", minSize)}
	}
	tolPct, err := paramFloat(raw, "tolerance", 10)
	if err != nil {
		return nil, nil, err
	}
	if !(tolPct >= 0 && tolPct <= 100) {
		return nil, nil, &ParamError{Param: "tolerance", Reason: fmt.Sprintf("percent %g out of [0, 100]", tolPct)}
	}
	alg, algName, err := paramAlgorithm(raw)
	if err != nil {
		return nil, nil, err
	}
	p := mineParams{Tissue: raw["tissue"], K: k, MinSize: minSize, TolPct: tolPct, Algorithm: algName}
	compute := func(c *exec.Ctl, snap system.Snapshot) (any, int64, bool, error) {
		sub, err := subsetOf(snap.Data, p.Tissue)
		if err != nil {
			return nil, 0, false, err
		}
		tol, err := clean.ToleranceVector(sub, p.TolPct)
		if err != nil {
			return nil, 0, false, err
		}
		k := p.K
		if k <= 0 {
			k = sub.NumTags() * 60 / 100
		}
		label := p.Tissue
		if label == "" {
			label = "corpus"
		}
		results, partial, err := core.MineWith(c, fmt.Sprintf("session.mine:%s.%dk", label, k),
			sub, fascicle.Params{K: k, Tolerance: tol, MinSize: p.MinSize}, alg)
		if err != nil {
			return nil, 0, false, err
		}
		var bytes int64
		//lint:gea ctlcharge -- O(fascicles) size estimation after the metered mine
		for i := range results {
			bytes += sumyBytes(results[i].Sumy) + enumBytes(results[i].Enum)
		}
		return results, bytes, partial, nil
	}
	return p, compute, nil
}

type aggregateParams struct {
	Tissue     string
	WithMedian bool
}

func buildAggregate(raw map[string]string) (any, computeFn, error) {
	median, err := paramBool(raw, "median")
	if err != nil {
		return nil, nil, err
	}
	p := aggregateParams{Tissue: raw["tissue"], WithMedian: median}
	compute := func(c *exec.Ctl, snap system.Snapshot) (any, int64, bool, error) {
		return aggregateOf(p, snap.Data)(c)
	}
	return p, compute, nil
}

type diffParams struct {
	TissueA, TissueB string
}

func buildDiff(raw map[string]string) (any, computeFn, error) {
	a, b := raw["a"], raw["b"]
	if a == "" || b == "" || a == b {
		return nil, nil, &ParamError{Param: "a/b", Reason: "diff needs two distinct tissues"}
	}
	p := diffParams{TissueA: a, TissueB: b}
	compute := func(c *exec.Ctl, snap system.Snapshot) (any, int64, bool, error) {
		sa, pa, err := sharedAggregate(c, snap, p.TissueA)
		if err != nil {
			return nil, 0, false, err
		}
		sb, pb, err := sharedAggregate(c, snap, p.TissueB)
		if err != nil {
			return nil, 0, false, err
		}
		g, pg, err := core.DiffWith(c, fmt.Sprintf("session.gap:%s|%s", p.TissueA, p.TissueB), sa, sb)
		if err != nil {
			return nil, 0, false, err
		}
		return g, gapBytes(g), pa || pb || pg, nil
	}
	return p, compute, nil
}

type populateParams struct {
	Tissue string
}

// PopulateResult pairs the populated ENUM with its evaluation stats.
type PopulateResult struct {
	Enum  *core.Enum         `json:"enum"`
	Stats core.PopulateStats `json:"stats"`
}

func buildPopulate(raw map[string]string) (any, computeFn, error) {
	if raw["tissue"] == "" {
		return nil, nil, &ParamError{Param: "tissue", Reason: "populate needs a tissue to profile"}
	}
	p := populateParams{Tissue: raw["tissue"]}
	compute := func(c *exec.Ctl, snap system.Snapshot) (any, int64, bool, error) {
		sm, pa, err := sharedAggregate(c, snap, p.Tissue)
		if err != nil {
			return nil, 0, false, err
		}
		e, stats, pp, err := core.PopulateWith(c, "session.pop:"+p.Tissue, sm, snap.Data, nil, core.PopulateOptions{})
		if err != nil {
			return nil, 0, false, err
		}
		return PopulateResult{Enum: e, Stats: stats}, enumBytes(e), pa || pp, nil
	}
	return p, compute, nil
}

type selectParams struct {
	Tissue  string
	MinMean float64
}

func buildSelect(raw map[string]string) (any, computeFn, error) {
	minMean, err := paramFloat(raw, "minmean", 0)
	if err != nil {
		return nil, nil, err
	}
	p := selectParams{Tissue: raw["tissue"], MinMean: minMean}
	compute := func(c *exec.Ctl, snap system.Snapshot) (any, int64, bool, error) {
		sm, pa, err := sharedAggregate(c, snap, p.Tissue)
		if err != nil {
			return nil, 0, false, err
		}
		// The predicate is built here, from numeric params only — funcs
		// never reach the cache key.
		out, ps, err := core.SelectSumyWith(c, fmt.Sprintf("session.sel:%s>=%g", p.Tissue, p.MinMean),
			sm, func(r core.SumyRow) bool { return r.Mean >= p.MinMean })
		if err != nil {
			return nil, 0, false, err
		}
		return out, sumyBytes(out), pa || ps, nil
	}
	return p, compute, nil
}

type rangeSearchParams struct {
	TissueA, TissueB  string
	Lo, Hi            float64
	FirstTag, LastTag int
}

func buildRangeSearch(raw map[string]string) (any, computeFn, error) {
	lo, err := paramFloat(raw, "lo", 0)
	if err != nil {
		return nil, nil, err
	}
	hi, err := paramFloat(raw, "hi", 0)
	if err != nil {
		return nil, nil, err
	}
	if hi < lo {
		return nil, nil, &ParamError{Param: "lo/hi", Reason: fmt.Sprintf("inverted query range [%g, %g]", lo, hi)}
	}
	first, err := paramTag(raw, "firsttag")
	if err != nil {
		return nil, nil, err
	}
	last, err := paramTag(raw, "lasttag")
	if err != nil {
		return nil, nil, err
	}
	p := rangeSearchParams{TissueA: raw["a"], TissueB: raw["b"], Lo: lo, Hi: hi, FirstTag: first, LastTag: last}
	compute := func(c *exec.Ctl, snap system.Snapshot) (any, int64, bool, error) {
		// lasttag 0 means the dataset's last tag, known only here.
		last := sage.TagID(p.LastTag)
		if p.LastTag == 0 && snap.Data.NumTags() > 0 {
			last = snap.Data.Tags[len(snap.Data.Tags)-1]
		}
		if first := sage.TagID(p.FirstTag); first > last {
			return nil, 0, false, &ParamError{Param: "firsttag/lasttag", Reason: fmt.Sprintf("inverted tag range %d-%d", first, last)}
		}
		var sumys []*core.Sumy
		partial := false
		for _, tissue := range []string{p.TissueA, p.TissueB} {
			if tissue == "" && len(sumys) > 0 {
				continue
			}
			sm, pa, err := sharedAggregate(c, snap, tissue)
			if err != nil {
				return nil, 0, false, err
			}
			partial = partial || pa
			sumys = append(sumys, sm)
		}
		rows, pr, err := core.RangeSearchWith(c, sumys, sage.TagID(p.FirstTag), last,
			core.BroadOverlap(interval.New(p.Lo, p.Hi)))
		if err != nil {
			return nil, 0, false, err
		}
		return rows, int64(len(rows))*64 + 64, partial || pr, nil
	}
	return p, compute, nil
}

type topGapParams struct {
	TissueA, TissueB string
	X                int
}

func buildTopGap(raw map[string]string) (any, computeFn, error) {
	a, b := raw["a"], raw["b"]
	if a == "" || b == "" || a == b {
		return nil, nil, &ParamError{Param: "a/b", Reason: "topgap needs two distinct tissues"}
	}
	x, err := paramInt(raw, "x", 10)
	if err != nil {
		return nil, nil, err
	}
	if x <= 0 {
		return nil, nil, &ParamError{Param: "x", Reason: fmt.Sprintf("top count must be positive, got %d", x)}
	}
	p := topGapParams{TissueA: a, TissueB: b, X: x}
	compute := func(c *exec.Ctl, snap system.Snapshot) (any, int64, bool, error) {
		sa, pa, err := sharedAggregate(c, snap, p.TissueA)
		if err != nil {
			return nil, 0, false, err
		}
		sb, pb, err := sharedAggregate(c, snap, p.TissueB)
		if err != nil {
			return nil, 0, false, err
		}
		g, pg, err := core.DiffWith(c, fmt.Sprintf("session.gap:%s|%s", p.TissueA, p.TissueB), sa, sb)
		if err != nil {
			return nil, 0, false, err
		}
		top, err := core.TopGaps(fmt.Sprintf("session.top:%s|%s.%d", p.TissueA, p.TissueB, p.X), g, 0, p.X)
		if err != nil {
			return nil, 0, false, err
		}
		return top, gapBytes(top), pa || pb || pg, nil
	}
	return p, compute, nil
}

package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// The traced run splits every request across the server's modules using
// only what "gea serve -debug" exposes and /proc:
//
//	client latency = serve self + dispatch         (dispatch = reply wall_ns)
//	dispatch       = operator spans + rest          (rest = session, admission, rescache)
//
// The operator spans of a computed reply are the root spans its compute
// recorded, found at the tail of /debug/spans right after the reply by
// summing root units until they equal the reply's units.

// spanRecord is one span of /debug/spans.
type spanRecord struct {
	Op       string       `json:"op"`
	Units    int64        `json:"units"`
	WallNS   int64        `json:"wall_ns"`
	Children []spanRecord `json:"children,omitempty"`
}

// selfNS is the span's wall time minus its children's.
func (s spanRecord) selfNS() int64 {
	n := s.WallNS
	for _, c := range s.Children {
		n -= c.WallNS
	}
	return n
}

// walk visits the span and its descendants, pre-order.
func (s spanRecord) walk(fn func(spanRecord)) {
	fn(s)
	for _, c := range s.Children {
		c.walk(fn)
	}
}

// ingestRoot is the root span of an append, which runs beside reads on
// ingest-mixed and never belongs to a read.
const ingestRoot = "system.IngestAppend"

// matchRoots returns the newest roots (oldest first) whose units sum to
// units, skipping append roots, or nil when no such tail exists.
func matchRoots(roots []spanRecord, units int64) []spanRecord {
	var sum int64
	var got []spanRecord
	for i := len(roots) - 1; i >= 0 && sum < units; i-- {
		if roots[i].Op == ingestRoot {
			continue
		}
		sum += roots[i].Units
		got = append(got, roots[i])
	}
	if sum != units || len(got) == 0 {
		return nil
	}
	for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
		got[i], got[j] = got[j], got[i]
	}
	return got
}

// partsTolNS is how far below zero a part of the breakdown may read
// before the request counts as unreconciled: the server's and the
// client's clocks are the same monotonic clock, so only rounding
// separates them.
const partsTolNS = 100_000

// parts splits a computed session reply into serve self, operator and
// rest, in ns. ok is false when its spans were not found or a part is
// negative beyond partsTolNS.
func parts(s sample) (serve, operator, rest int64, ok bool) {
	client := s.ex.Last.Sub(s.ex.Sent).Nanoseconds()
	serve = client - s.hdr.WallNS
	for _, r := range s.spans {
		operator += r.WallNS
	}
	rest = s.hdr.WallNS - operator
	ok = len(s.spans) > 0 && serve >= -partsTolNS && rest >= -partsTolNS
	return serve, operator, rest, ok
}

// serverCounters is one reading of the server's introspection surface.
type serverCounters struct {
	health   healthz
	counters map[string]int64
	hists    map[string][2]float64 // name -> {count, sum}
	numGC    int64
	pauseNS  int64
	alloc    int64
}

func (c serverCounters) delta(before serverCounters, name string) float64 {
	return float64(c.counters[name] - before.counters[name])
}

func (c serverCounters) histMeanMS(before serverCounters, name string) float64 {
	n := c.hists[name][0] - before.hists[name][0]
	if n <= 0 {
		return 0
	}
	return (c.hists[name][1] - before.hists[name][1]) / n * 1000
}

// readCounters reads /healthz, /debug/metrics and /debug/vars.
func readCounters(c *httpClient) (serverCounters, error) {
	out := serverCounters{counters: map[string]int64{}, hists: map[string][2]float64{}}
	if err := c.getJSON("/healthz", &out.health); err != nil {
		return out, err
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name  string  `json:"name"`
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := c.getJSON("/debug/metrics", &snap); err != nil {
		return out, err
	}
	for _, p := range snap.Counters {
		out.counters[p.Name] = p.Value
	}
	for _, h := range snap.Histograms {
		out.hists[h.Name] = [2]float64{float64(h.Count), h.Sum}
	}
	var vars struct {
		Memstats struct {
			NumGC        int64 `json:"NumGC"`
			PauseTotalNs int64 `json:"PauseTotalNs"`
			TotalAlloc   int64 `json:"TotalAlloc"`
		} `json:"memstats"`
	}
	if err := c.getJSON("/debug/vars", &vars); err != nil {
		return out, err
	}
	out.numGC, out.pauseNS, out.alloc = vars.Memstats.NumGC, vars.Memstats.PauseTotalNs, vars.Memstats.TotalAlloc
	return out, nil
}

// coreOps are the session operators, in the order the table prints them.
var coreOps = []string{"aggregate", "diff", "topgap", "select", "populate", "rangesearch", "mine"}

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	t             *timed
	before, after serverCounters
	lineageNodes  int
}

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(in layerInput) map[string]float64 {
	t := in.t
	m := map[string]float64{}
	var serveMS, dispatchMS, sizesMB []float64
	var serveSum, mbSum float64
	coreMS := map[string][]float64{}
	var units, opMS, spanMS, spanWallMS float64
	var minerMS, findpureMS []float64
	unreconciled := 0
	for _, s := range t.samples {
		if !s.ok {
			continue
		}
		sizesMB = append(sizesMB, float64(s.ex.Size)/1e6)
		if s.req.Legacy {
			findpureMS = append(findpureMS, s.ex.ms())
			continue
		}
		self := s.ex.ms() - float64(s.hdr.WallNS)/1e6
		serveMS = append(serveMS, self)
		dispatchMS = append(dispatchMS, float64(s.hdr.WallNS)/1e6)
		serveSum += self / 1000
		mbSum += float64(s.ex.Size) / 1e6
		if s.hdr.Source != "computed" {
			continue
		}
		wall := float64(s.hdr.WallNS) / 1e6
		coreMS[s.req.Op] = append(coreMS[s.req.Op], wall)
		units += float64(s.hdr.Units)
		opMS += wall
		_, op, _, ok := parts(s)
		if !ok {
			unreconciled++
			continue
		}
		spanMS += float64(op) / 1e6
		spanWallMS += wall
		if s.req.Op == "mine" {
			var self int64
			for _, r := range s.spans {
				r.walk(func(n spanRecord) {
					if strings.HasPrefix(n.Op, "fascicle.") {
						self += n.selfNS()
					}
				})
			}
			minerMS = append(minerMS, float64(self)/1e6)
		}
	}
	wallS := t.wall.Seconds()
	ops := float64(t.completed() + len(t.appends))

	m["serve.self_ms_p50"] = quantile(serveMS, 0.5)
	m["serve.self_ms_p90"] = quantile(serveMS, 0.9)
	m["serve.reply_mb_mean"] = mean(sizesMB)
	m["serve.mb_per_s"] = ratio(mbSum, serveSum)
	m["session.dispatch_ms_p50"] = quantile(dispatchMS, 0.5)
	m["session.dispatch_ms_p90"] = quantile(dispatchMS, 0.9)
	m["session.lineage_nodes"] = float64(in.lineageNodes)

	b, a := in.before.health, in.after.health
	m["admission.wait_ms_mean"] = float64(a.Admission.AvgWaitNS) / 1e6
	m["admission.refused"] = float64(a.Admission.Rejected - b.Admission.Rejected + a.Admission.TimedOut - b.Admission.TimedOut)
	hits := float64(a.Cache.Hits - b.Cache.Hits)
	lookups := hits + float64(a.Cache.Misses-b.Cache.Misses) + float64(a.Cache.Shared-b.Cache.Shared)
	m["rescache.hit_ratio"] = ratio(hits, lookups)
	m["rescache.shared"] = float64(a.Cache.Shared - b.Cache.Shared)
	m["rescache.evicted"] = float64(a.Cache.Evicted - b.Cache.Evicted)
	m["rescache.mb"] = float64(a.Cache.Bytes) / 1e6

	for _, op := range coreOps {
		m["core."+op+"_ms"] = median(coreMS[op])
	}
	m["core.units_per_ms"] = ratio(units, opMS)
	m["core.span_share"] = ratio(spanMS, spanWallMS)
	m["system.findpure_ms"] = median(findpureMS)
	m["fascicle.miner_ms"] = median(minerMS)
	m["shard.cpu_per_wall"] = ratio(t.cpuS, wallS)

	scanned := in.after.delta(in.before, "columnar.blocks_scanned")
	skipped := in.after.delta(in.before, "columnar.blocks_skipped")
	m["columnar.blocks_skipped_ratio"] = ratio(skipped, scanned+skipped)
	m["columnar.mb_decoded"] = in.after.delta(in.before, "columnar.bytes_decoded") / 1e6

	m["ingest.apply_ms_mean"] = in.after.histMeanMS(in.before, "ingest.apply_s")
	m["ingest.commit_ms_mean"] = in.after.histMeanMS(in.before, "ingest.commit_s")
	acked, lastRSS := 0, t.rss0MB
	for _, ap := range t.appends {
		if ap.ok {
			acked++
			lastRSS = ap.rssMB
		}
	}
	m["ingest.rss_mb_per_append"] = ratio(lastRSS-t.rss0MB, float64(acked))
	m["ingest.quarantined"] = in.after.delta(in.before, "ingest.quarantined")
	m["ingest.retries"] = in.after.delta(in.before, "ingest.retries")

	m["gc.cycles"] = float64(in.after.numGC - in.before.numGC)
	m["gc.pause_ms"] = float64(in.after.pauseNS-in.before.pauseNS) / 1e6
	m["heap.alloc_mb_per_request"] = ratio(float64(in.after.alloc-in.before.alloc)/1e6, ops)

	m["loadgen.cpu_frac"] = ratio(t.loadgenCPUS, wallS)
	// A traced run differs from an untraced one only by the /debug/spans
	// reads between requests (the server's span collector is always on),
	// so their share of the clients' time is the tracing overhead.
	var traceS float64
	for _, s := range t.samples {
		traceS += s.traceDur.Seconds()
	}
	m["trace.overhead_frac"] = ratio(traceS, float64(t.clients)*t.readWall.Seconds())
	m["trace.unreconciled"] = float64(unreconciled)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printBreakdown writes the traced table: per op class, the request
// count and the medians of client latency and of its parts.
func printBreakdown(w io.Writer, t *timed) {
	type row struct{ client, firstByte, serve, dispatch, operator, rest []float64 }
	rows := map[string]*row{}
	for _, s := range t.samples {
		if !s.ok {
			continue
		}
		class := s.req.Op
		if !s.req.Legacy {
			class += "/" + s.hdr.Source
		}
		r := rows[class]
		if r == nil {
			r = &row{}
			rows[class] = r
		}
		r.client = append(r.client, s.ex.ms())
		r.firstByte = append(r.firstByte, float64(s.ex.First.Sub(s.ex.Sent).Nanoseconds())/1e6)
		if s.req.Legacy {
			continue
		}
		serve, op, rest, ok := parts(s)
		r.serve = append(r.serve, float64(serve)/1e6)
		r.dispatch = append(r.dispatch, float64(s.hdr.WallNS)/1e6)
		if ok {
			r.operator = append(r.operator, float64(op)/1e6)
			r.rest = append(r.rest, float64(rest)/1e6)
		}
	}
	classes := make([]string, 0, len(rows))
	for c := range rows {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "traced breakdown (medians, ms): %-22s %5s %10s %10s %10s %10s %10s %10s\n",
		"op/source", "n", "client", "1st byte", "serve", "dispatch", "operator", "rest")
	for _, c := range classes {
		r := rows[c]
		if len(r.serve) == 0 {
			// The legacy /mine reports no dispatch wall: client only.
			fmt.Fprintf(w, "traced breakdown (medians, ms): %-22s %5d %10.2f %10.2f %10s %10s %10s %10s\n",
				c, len(r.client), median(r.client), median(r.firstByte), "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "traced breakdown (medians, ms): %-22s %5d %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f\n",
			c, len(r.client), median(r.client), median(r.firstByte), median(r.serve), median(r.dispatch), median(r.operator), median(r.rest))
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
)

// tissues are the nine tissue types of the full-scale generated corpus.
var tissues = []string{"brain", "breast", "colon", "kidney", "ovary", "pancreas", "prostate", "skin", "vascular"}

// request is one operation a client sends: a session operator run
// (POST /session/{id}/run) or the legacy GET /mine?tissue=.
type request struct {
	Legacy bool
	Op     string
	Params map[string]string
}

func runReq(op string, kv ...string) request {
	p := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		p[kv[i]] = kv[i+1]
	}
	return request{Op: op, Params: p}
}

func legacyReq(tissue string) request {
	return request{Legacy: true, Op: "findpure", Params: map[string]string{"tissue": tissue}}
}

// key is the request's (op, params) identity, params sorted by name.
func (r request) key() string {
	names := make([]string, 0, len(r.Params))
	for k := range r.Params {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(r.Op)
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%s", k, r.Params[k])
	}
	return b.String()
}

func (r request) path(sid string) string {
	if r.Legacy {
		return "/mine?tissue=" + url.QueryEscape(r.Params["tissue"])
	}
	return "/session/" + sid + "/run"
}

// body is the JSON run request; every run asks for workers = nproc.
func (r request) body(workers int) []byte {
	if r.Legacy {
		return nil
	}
	b, _ := json.Marshal(map[string]any{"op": r.Op, "params": r.Params, "workers": workers})
	return b
}

// pairs lists every ordered pair of distinct tissues.
func pairs() [][2]string {
	var out [][2]string
	for _, a := range tissues {
		for _, b := range tissues {
			if a != b {
				out = append(out, [2]string{a, b})
			}
		}
	}
	return out
}

// jitter formats base plus a seeded fraction in [0, 10) with two
// decimals, so parameters stay distinct while the work they ask for
// stays the same size from seed to seed.
func jitter(rng *rand.Rand, base float64) string {
	return fmt.Sprintf("%.2f", base+float64(rng.Intn(1000))/100)
}

// pick returns k distinct elements of s in seeded order.
func pick[T any](rng *rand.Rand, s []T, k int) []T {
	c := append([]T(nil), s...)
	rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	return c[:k]
}

// exploreSequence is explore-cold's request sequence: an analyst's
// exploratory pipeline in which no (op, params) key repeats. The count
// of every op class is fixed and the seed picks parameters and order, so
// every seed asks for about the same work. Of the 114 requests, 16 are
// small selects (10-45 ms), 74 topgaps (35-60 ms, compute-bound with a
// 2 KB reply), 20 diffs and aggregates (100-400 ms, 8-12 MB replies) and
// 4 heavy requests (0.4-2.5 s: mine, populate, rangesearch, legacy
// /mine): the p50 rank falls in the middle of the topgaps and the p90
// rank in the middle of the diffs and aggregates.
func exploreSequence(seed int64) []request {
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	var seq []request
	scopes := append([]string{""}, tissues...)
	// 16 selects over distinct (scope, band) pairs; the bands keep
	// replies under about 0.5 MB.
	type scoped struct {
		scope string
		band  float64
	}
	var sel []scoped
	for _, s := range scopes {
		for _, band := range []float64{35, 80, 150} {
			sel = append(sel, scoped{s, band})
		}
	}
	for _, c := range pick(rng, sel, 16) {
		seq = append(seq, runReq("select", "tissue", c.scope, "minmean", jitter(rng, c.band)))
	}
	// 74 topgaps: every ordered pair once and two pairs twice, each
	// with its own top count.
	ps := pairs()
	for i, p := range append(pick(rng, ps, len(ps)), pick(rng, ps, 2)...) {
		x := 5 + rng.Intn(20)
		if i >= len(ps) {
			x += 25
		}
		seq = append(seq, runReq("topgap", "a", p[0], "b", p[1], "x", fmt.Sprint(x)))
	}
	// 8 diffs over distinct pairs, the aggregate of every scope and of
	// two tissues with the median: with the rest of the run's results
	// they overflow the cache's 64 MiB by about 10 MB, so it evicts.
	for _, p := range pick(rng, ps, 8) {
		seq = append(seq, runReq("diff", "a", p[0], "b", p[1]))
	}
	for _, s := range scopes {
		seq = append(seq, runReq("aggregate", "tissue", s))
	}
	for _, t := range pick(rng, tissues, 2) {
		seq = append(seq, runReq("aggregate", "tissue", t, "median", "true"))
	}
	// The heavy tail: a full-range rangesearch and the legacy /mine on
	// skin, which it solves in about half a second, at evenly spaced
	// positions.
	p := pick(rng, ps, 1)[0]
	lo := 1 + rng.Intn(20)
	seq = append(seq, runReq("rangesearch", "a", p[0], "b", p[1],
		"lo", fmt.Sprint(lo), "hi", fmt.Sprint(lo+5+rng.Intn(200))))
	seq = append(seq, legacyReq("skin"))
	seq = placeTail(rng, seq, 2)
	// A mine of a mid-sized tissue and a populate (about 100 MB of reply)
	// drive the server's peak memory. They come first, so the heap they
	// meet is the same from seed to seed: late in the run, with the cache
	// full, the lift a mine gives RSS varies with where GC cycles fall.
	return append([]request{
		runReq("mine", "tissue", pick(rng, []string{"breast", "colon", "kidney", "ovary", "pancreas", "prostate"}, 1)[0]),
		runReq("populate", "tissue", pick(rng, tissues[1:], 1)[0]),
	}, seq...)
}

// placeTail shuffles seq, whose last n requests are its heavy tail, and
// puts that tail at evenly spaced positions, so every seed's largest
// replies meet the server in about the same state.
func placeTail(rng *rand.Rand, seq []request, n int) []request {
	body, tail := seq[:len(seq)-n], seq[len(seq)-n:]
	rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
	rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	out := make([]request, 0, len(seq))
	step := len(seq) / n
	for i, j := 0, 0; len(out) < len(seq); i++ {
		if j < n && i == step/2+j*step {
			out = append(out, tail[j])
			j++
			continue
		}
		out = append(out, body[0])
		body = body[1:]
	}
	return out
}

// hotKeys is shared-hot's popular key set: 17 keys whose results fit the
// default result cache (256 entries, 64 MB of approximate bytes) and
// whose replies range from about 2 KB (topgap) to about 100 MB
// (populate).
func hotKeys(seed int64) map[string][]request {
	rng := rand.New(rand.NewSource(seed*15485863 + 2))
	keys := map[string][]request{}
	for _, p := range pick(rng, pairs(), 4) {
		keys["topgap"] = append(keys["topgap"], runReq("topgap", "a", p[0], "b", p[1], "x", fmt.Sprint(5+rng.Intn(46))))
	}
	for _, s := range pick(rng, append([]string{""}, tissues...), 4) {
		keys["select"] = append(keys["select"], runReq("select", "tissue", s, "minmean", jitter(rng, 100)))
	}
	for _, p := range pick(rng, pairs(), 4) {
		keys["diff"] = append(keys["diff"], runReq("diff", "a", p[0], "b", p[1]))
	}
	for _, t := range pick(rng, tissues, 3) {
		keys["aggregate"] = append(keys["aggregate"], runReq("aggregate", "tissue", t))
	}
	keys["mine"] = []request{runReq("mine", "tissue", pick(rng, []string{"skin", "vascular"}, 1)[0])}
	keys["populate"] = []request{runReq("populate", "tissue", pick(rng, tissues[1:], 1)[0])}
	return keys
}

// hotMix is each shared-hot client's op counts. Over both clients the
// run sends 100 requests: 16 small replies (topgap, select), 66 diffs
// (8 MB), 16 aggregates and mines (11-18 MB) and 2 populates (98 MB).
// The p50 rank falls in the middle of the diffs and the p90 rank in the
// middle of the aggregates and mines. Client 1 sends both populates, so
// two 98 MB encodes never overlap; client 2 sends more of the mid-sized
// replies instead, which keeps the two clients' busy time about equal.
var hotMix = [2][]struct {
	op string
	n  int
}{
	{{"topgap", 4}, {"select", 4}, {"diff", 26}, {"aggregate", 2}, {"mine", 2}, {"populate", 2}},
	{{"topgap", 4}, {"select", 4}, {"diff", 40}, {"aggregate", 6}, {"mine", 6}},
}

// hotSequence is one shared-hot client's seeded sequence over the keys;
// populates, the heavy tail, sit at evenly spaced positions.
func hotSequence(keys map[string][]request, seed int64, client int) []request {
	rng := rand.New(rand.NewSource(seed*32452843 + int64(client)*7 + 3))
	var seq []request
	heavy := 0
	for _, m := range hotMix[client%2] {
		if m.op == "populate" {
			heavy = m.n
		}
		for i := 0; i < m.n; i++ {
			ks := keys[m.op]
			seq = append(seq, ks[rng.Intn(len(ks))])
		}
	}
	if heavy == 0 {
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		return seq
	}
	return placeTail(rng, seq, heavy)
}

// allKeys flattens a key set (the prefill pass).
func allKeys(keys map[string][]request) []request {
	var out []request
	for _, op := range []string{"topgap", "select", "diff", "aggregate", "mine", "populate"} {
		out = append(out, keys[op]...)
	}
	return out
}

// ingestReads is ingest-mixed's reader cycle, one request of each: a
// topgap (2 KB reply), a diff (8 MB) and a per-tissue aggregate (12 MB)
// on the row engine, and a whole-corpus select (0.1 MB) and aggregate
// (12.5 MB) on the columnar view that ingestion adopts. Each is a fifth
// of the reads, so the p50 rank falls in the middle of the diffs and the
// p90 rank in the middle of the whole-corpus aggregates.
func ingestReads(seed int64) []request {
	rng := rand.New(rand.NewSource(seed*49979687 + 4))
	ts := pick(rng, tissues, 5)
	seq := []request{
		runReq("topgap", "a", ts[0], "b", ts[1], "x", fmt.Sprint(5+rng.Intn(46))),
		runReq("select", "tissue", "", "minmean", jitter(rng, 100)),
		runReq("diff", "a", ts[2], "b", ts[3]),
		runReq("aggregate", "tissue", ts[4]),
		runReq("aggregate", "tissue", ""),
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

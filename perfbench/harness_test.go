package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestLatencyQuantilesP90Rule(t *testing.T) {
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	p50, p90, err := latencyQuantiles(ms, 0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 50 || p90 != 90 {
		t.Fatalf("p50, p90 = %v, %v; want 50, 90", p50, p90)
	}
	if _, _, err := latencyQuantiles(ms[:99], 0, 1e6); err == nil {
		t.Fatal("99 samples leave 9 beyond p90; want an error")
	}
}

func TestLatencyQuantilesRankFailuresAboveLimit(t *testing.T) {
	ms := make([]float64, 95)
	for i := range ms {
		ms[i] = 10
	}
	// Five failures among 100 requests sit above every latency but not
	// at p90; fifteen reach it.
	_, p90, err := latencyQuantiles(ms, 5, 120000)
	if err != nil {
		t.Fatal(err)
	}
	if p90 != 10 {
		t.Fatalf("p90 with 5%% failed = %v, want 10", p90)
	}
	_, p90, err = latencyQuantiles(ms[:85], 15, 120000)
	if err != nil {
		t.Fatal(err)
	}
	if p90 != 120000 {
		t.Fatalf("p90 with 15%% failed = %v, want the failure rank 120000", p90)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command may hold spaces and parentheses; utime=1234, stime=56.
	stat := "4242 (gea (serve) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 1234 56 0 0 20 0 12 0 99 0 0"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1290 {
		t.Fatalf("ticks = %d, want 1290", got)
	}
	if _, err := parseStatCPU([]byte("4242 (gea) S 1 2")); err == nil {
		t.Fatal("a truncated stat line must fail")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tgea\nVmPeak:\t  900000 kB\nVmHWM:\t  254608 kB\nVmRSS:\t  127788 kB\n"
	for key, want := range map[string]int64{"VmHWM": 254608, "VmRSS": 127788} {
		got, err := parseStatusKB([]byte(status), key)
		if err != nil || got != want {
			t.Fatalf("%s = %d, %v; want %d", key, got, err, want)
		}
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Fatal("a missing key must fail")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	pid := os.Getpid()
	if _, err := cpuSeconds(pid); err != nil {
		t.Fatal(err)
	}
	hwm, err := statusMB(pid, "VmHWM")
	if err != nil || hwm <= 0 {
		t.Fatalf("VmHWM = %v, %v", hwm, err)
	}
	rss, err := statusMB(pid, "VmRSS")
	if err != nil || rss <= 0 || rss > hwm*1.01 {
		t.Fatalf("VmRSS = %v (VmHWM %v), %v", rss, hwm, err)
	}
	if avail, err := memAvailableMB(); err != nil || avail <= 0 {
		t.Fatalf("MemAvailable = %v, %v", avail, err)
	}
}

func TestIsGeaServe(t *testing.T) {
	if !isGeaServe([]byte("/x/.bench_build/bin/gea\x00serve\x00-in\x00s\x00")) {
		t.Fatal("gea serve not recognised")
	}
	if isGeaServe([]byte("/bin/bash\x00-c\x00gea serve\x00")) || isGeaServe([]byte("gea\x00gen\x00")) {
		t.Fatal("not a gea serve process")
	}
}

// runReply renders a session reply the way gea serve writes it.
func runReply(gen uint64, units int64, partial bool, wallNS int64, result string) string {
	p := ""
	if partial {
		p = "  \"partial\": true,\n"
	}
	return fmt.Sprintf("{\n  \"session\": \"s\",\n  \"op\": \"aggregate\",\n  \"generation\": %d,\n  \"units\": %d,\n%s"+
		"  \"source\": \"computed\",\n  \"cached\": false,\n  \"wall_ns\": %d,\n  \"node\": \"session/s/aggregate#1\",\n"+
		"  \"result\": %s\n}\n", gen, units, p, wallNS, result)
}

func scan(t *testing.T, body string, chunk int) (runHeader, uint64) {
	t.Helper()
	sc := newReplyScanner(nil)
	for i := 0; i < len(body); i += chunk {
		j := i + chunk
		if j > len(body) {
			j = len(body)
		}
		if _, err := sc.Write([]byte(body[i:j])); err != nil {
			t.Fatal(err)
		}
	}
	h, sum, err := sc.finish()
	if err != nil {
		t.Fatal(err)
	}
	return h, sum
}

func TestReplyScannerSplitAcrossReads(t *testing.T) {
	body := runReply(3, 57543, false, 16112345, `{"name": "x", "rows": [1, 2.5, 3]}`)
	want, wantSum := scan(t, body, len(body))
	if want.WallNS != 16112345 || want.Units != 57543 || want.Generation != 3 || want.Source != "computed" {
		t.Fatalf("header = %+v", want)
	}
	for chunk := 1; chunk < len(body); chunk++ {
		h, sum := scan(t, body, chunk)
		if h != want || sum != wantSum {
			t.Fatalf("chunk %d: header %+v sum %x; want %+v %x", chunk, h, sum, want, wantSum)
		}
	}
	_, other := scan(t, runReply(3, 57543, false, 1, `{"name": "x", "rows": [1, 2.5, 4]}`), 7)
	if other == wantSum {
		t.Fatal("different results share a checksum")
	}
}

// fakeServer answers every run with the next canned reply.
func fakeServer(t *testing.T, replies ...string) *httptest.Server {
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reply := replies[n%len(replies)]
		n++
		if strings.HasPrefix(reply, "status ") {
			var code int
			fmt.Sscanf(reply, "status %d", &code)
			http.Error(w, "canned", code)
			return
		}
		w.Write([]byte(reply))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestSendFailsBadReplies(t *testing.T) {
	good := runReply(0, 10, false, 5, `{"v": 1}`)
	cases := []struct {
		name   string
		second string
		want   string
	}{
		{"partial", runReply(0, 10, true, 5, `{"v": 1}`), "partial"},
		{"wrong units", runReply(0, 11, false, 5, `{"v": 1}`), "units 11"},
		{"wrong generation", runReply(1, 10, false, 5, `{"v": 1}`), "generation 1"},
		{"mismatched content", runReply(0, 10, false, 5, `{"v": 2}`), "checksum"},
		{"server error", "status 500", "status 500"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := fakeServer(t, good, tc.second)
			c := newHTTPClient(srv.URL)
			defer c.close()
			ck := newChecker()
			gens := &generations{}
			r := runReq("aggregate", "tissue", "brain")
			if s := send(c, ck, "s", 2, r, gens); !s.ok {
				t.Fatalf("first reply failed: %v", ck.failed())
			}
			if s := send(c, ck, "s", 2, r, gens); s.ok {
				t.Fatal("second reply passed")
			}
			bad := ck.failed()
			if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), tc.want) {
				t.Fatalf("violations %q, want one mentioning %q", bad, tc.want)
			}
		})
	}
}

func TestSendCountsRefusalAsFailedNotIncorrect(t *testing.T) {
	srv := fakeServer(t, "status 503")
	c := newHTTPClient(srv.URL)
	defer c.close()
	ck := newChecker()
	s := send(c, ck, "s", 2, runReq("select", "tissue", "skin"), &generations{})
	if s.ok || !s.refused || len(ck.failed()) != 0 {
		t.Fatalf("ok=%v refused=%v violations=%v", s.ok, s.refused, ck.failed())
	}
}

func TestGenerationWindowWhileIngesting(t *testing.T) {
	gens := &generations{moving: true}
	gens.acked.Store(4)
	if gens.low() != 4 || gens.high() != 5 {
		t.Fatalf("window [%d, %d], want [4, 5]", gens.low(), gens.high())
	}
}

func sampleAt(clientMS float64, wallNS int64, spans ...spanRecord) sample {
	sent := time.Unix(0, 0)
	return sample{
		req: runReq("diff", "a", "x", "b", "y"), ok: true,
		ex:  exchange{Status: 200, Sent: sent, Last: sent.Add(time.Duration(clientMS * float64(time.Millisecond)))},
		hdr: runHeader{Source: "computed", WallNS: wallNS, Units: 30}, spans: spans,
	}
}

func TestTracePartsReconcile(t *testing.T) {
	roots := []spanRecord{
		{Op: "core.Aggregate", Units: 7, WallNS: 1e6},
		{Op: "core.Aggregate", Units: 10, WallNS: 3e6},
		{Op: ingestRoot, Units: 99, WallNS: 50e6},
		{Op: "core.Aggregate", Units: 10, WallNS: 4e6},
		{Op: "core.Diff", Units: 10, WallNS: 2e6, Children: []spanRecord{{Op: "shard", WallNS: 1e6}}},
	}
	got := matchRoots(roots, 30)
	if len(got) != 3 || got[0].WallNS != 3e6 || got[2].Op != "core.Diff" {
		t.Fatalf("matched %+v", got)
	}
	if matchRoots(roots, 25) != nil {
		t.Fatal("units that no tail sums to must not match")
	}
	s := sampleAt(12.5, 10e6, got...)
	serve, op, rest, ok := parts(s)
	if !ok {
		t.Fatal("a consistent trace must reconcile")
	}
	client := s.ex.Last.Sub(s.ex.Sent).Nanoseconds()
	if serve+op+rest != client || serve != 2.5e6 || op != 9e6 || rest != 1e6 {
		t.Fatalf("serve %d + operator %d + rest %d != client %d", serve, op, rest, client)
	}
	// Operator spans longer than the dispatch wall cannot reconcile.
	if _, _, _, ok := parts(sampleAt(12.5, 5e6, got...)); ok {
		t.Fatal("operator spans beyond wall_ns must not reconcile")
	}
	m := layerMetrics(layerInput{t: &timed{samples: []sample{s, sampleAt(12.5, 5e6, got...)}, wall: time.Second, readWall: time.Second}})
	if m["trace.unreconciled"] != 1 {
		t.Fatalf("unreconciled = %v, want 1", m["trace.unreconciled"])
	}
	if math.Abs(m["serve.self_ms_p50"]-2.5) > 1e-9 && math.Abs(m["serve.self_ms_p50"]-7.5) > 1e-9 {
		t.Fatalf("serve.self_ms_p50 = %v", m["serve.self_ms_p50"])
	}
	for name := range layerUnits {
		if _, ok := m[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	if len(m) != len(layerUnits) {
		t.Errorf("%d per-layer metrics computed, %d declared", len(m), len(layerUnits))
	}
}

func digest(t *testing.T, chunks []string, drop ...string) string {
	t.Helper()
	w := newCanonWriter(drop...)
	for _, c := range chunks {
		if _, err := w.Write([]byte(c)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := w.sum()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCanonicalContentIgnoresEncoding(t *testing.T) {
	pretty := "{\n  \"enum\": {\"rows\": [1, 2.50, 1e+06, \"a b\"]},\n  \"stats\": {\"blocks\": 3}\n}\n"
	compact := `{"enum":{"rows":[1,2.5,1000000,"a b"]},"stats":{"blocks":3}}`
	if digest(t, []string{pretty}) != digest(t, []string{compact}) {
		t.Fatal("whitespace or number formatting changed the fingerprint")
	}
	if digest(t, []string{compact}) == digest(t, []string{`{"enum":{"rows":[1,2.5,1000000,"ab"]},"stats":{"blocks":3}}`}) {
		t.Fatal("a changed string kept the fingerprint")
	}
	var split []string
	for i := 0; i < len(pretty); i += 3 {
		split = append(split, pretty[i:min(i+3, len(pretty))])
	}
	if digest(t, split) != digest(t, []string{pretty}) {
		t.Fatal("chunking changed the fingerprint")
	}
	other := `{"enum":{"rows":[1,2.5,1000000,"a b"]},"stats":{"blocks":9}}`
	if digest(t, []string{compact}, "stats") != digest(t, []string{other}, "stats") {
		t.Fatal("a dropped member changed the fingerprint")
	}
	if digest(t, []string{compact}, "stats") == digest(t, []string{other}) {
		t.Fatal("dropping a member did not change the fingerprint")
	}
}

func TestCompareGolden(t *testing.T) {
	want := goldenFile{Entries: []goldenEntry{
		{Key: "a", Units: 1, Content: "aaaaaaaaaaaaaaaa"},
		{Key: "b", Units: 2, Content: "bbbbbbbbbbbbbbbb"},
		{Key: "c", Units: 3, Content: "cccccccccccccccc"},
	}}
	got := goldenFile{Entries: []goldenEntry{
		{Key: "a", Units: 1, Content: "aaaaaaaaaaaaaaaa"},
		{Key: "b", Units: 2, Content: "bbbbbbbbbbbbbbbX"},
		{Key: "c", Units: 4, Content: "cccccccccccccccc"},
	}}
	if bad := compareGolden(want, want); len(bad) != 0 {
		t.Fatalf("identical files differ: %v", bad)
	}
	if bad := compareGolden(want, got); len(bad) != 2 {
		t.Fatalf("mismatches %v, want b (content) and c (units)", bad)
	}
}

func TestGoldenFileCoversGoldenRequests(t *testing.T) {
	b, err := os.ReadFile("golden/seed-1.json")
	if err != nil {
		t.Fatal(err)
	}
	var f goldenFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, e := range f.Entries {
		keys[e.Key] = true
	}
	for _, r := range goldenRequests() {
		if !keys[r.key()] {
			t.Errorf("no fingerprint recorded for %s", r.key())
		}
	}
}

func TestGoldenHalvesCoverTheSet(t *testing.T) {
	odd, even := goldenHalf(7), goldenHalf(8)
	if len(goldenHalf(-3)) != len(odd) {
		t.Fatal("a negative seed picks a different half")
	}
	seen := map[string]int{}
	for _, r := range append(odd, even...) {
		seen[r.key()]++
	}
	for _, r := range goldenRequests() {
		want := 1
		if r.Op == "populate" {
			want = 2
		}
		if seen[r.key()] != want {
			t.Errorf("%s is checked by %d of the two halves, want %d", r.key(), seen[r.key()], want)
		}
	}
}

func TestExploreSequenceNeverRepeatsAKey(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seq := exploreSequence(seed)
		seen := map[string]bool{}
		ops := map[string]bool{}
		for _, r := range seq {
			if seen[r.key()] {
				t.Fatalf("seed %d repeats %s", seed, r.key())
			}
			seen[r.key()] = true
			ops[r.Op] = true
		}
		if len(seq) != 114 || len(ops) != 8 {
			t.Fatalf("seed %d: %d requests over %d ops, want 114 over the 7 session ops and findpure", seed, len(seq), len(ops))
		}
		if nearestRank(len(seq), 0.9) > len(seq)-minBeyondP90 {
			t.Fatalf("seed %d leaves fewer than %d requests beyond p90", seed, minBeyondP90)
		}
	}
	if exploreSequence(3)[0].key() != exploreSequence(3)[0].key() {
		t.Fatal("the sequence is not a function of the seed")
	}
}

func TestHotSequenceUsesOnlyHotKeys(t *testing.T) {
	keys := hotKeys(5)
	set := map[string]bool{}
	for _, k := range allKeys(keys) {
		set[k.key()] = true
	}
	if len(set) != 17 {
		t.Fatalf("%d distinct hot keys, want 17", len(set))
	}
	total := 0
	for c := 0; c < 2; c++ {
		seq := hotSequence(keys, 5, c)
		total += len(seq)
		for _, r := range seq {
			if !set[r.key()] {
				t.Fatalf("client %d sends %s outside the hot set", c, r.key())
			}
		}
	}
	if total-nearestRank(total, 0.9) < minBeyondP90 {
		t.Fatalf("%d requests leave fewer than %d beyond p90", total, minBeyondP90)
	}
}

func TestPlaceTailSpacesTheHeavyRequests(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seq := exploreSequence(seed)
		var at []int
		for i, r := range seq {
			switch r.Op {
			case "mine", "populate", "rangesearch", "findpure":
				at = append(at, i)
			}
		}
		if fmt.Sprint(at) != "[0 1 30 86]" {
			t.Fatalf("seed %d: heavy requests at %v, want [0 1 30 86]", seed, at)
		}
	}
	seq := hotSequence(hotKeys(3), 3, 0)
	var at []int
	for i, r := range seq {
		if r.Op == "populate" {
			at = append(at, i)
		}
	}
	if len(seq) != 40 || fmt.Sprint(at) != "[10 30]" {
		t.Fatalf("client 1: %d requests, populates at %v; want 40 and [10 30]", len(seq), at)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"gea"
)

// sessionMux builds a cached session-serving mux over the small
// synthetic corpus.
func sessionMux(t testing.TB, opts serveOptions) (*gateway, *http.ServeMux) {
	t.Helper()
	res, err := gea.Generate(gea.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	trace := gea.NewObsCollector()
	sys, err := gea.NewSystem(res.Corpus, gea.SystemOptions{
		User:        "serve-session-test",
		ResultCache: &gea.ResultCacheOptions{Metrics: trace.Metrics},
	})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	return newServeMux(sys, trace, opts)
}

// do runs one request through the mux without a network listener.
func do(t testing.TB, mux *http.ServeMux, method, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, url, nil)
	} else {
		r = httptest.NewRequest(method, url, strings.NewReader(body))
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, r)
	return rr
}

// TestServeSessionConformance walks the whole HTTP contract in one
// session lifetime: 201 create, 409 double create, 200 use (computed
// then hit, identical bodies), lineage listing, 400 caller faults, 404
// unknown, 204 close, 410 after close.
func TestServeSessionConformance(t *testing.T) {
	_, mux := sessionMux(t, serveOptions{})

	rr := do(t, mux, http.MethodPost, "/session", `{"id":"alpha","tenant":"acme"}`)
	if rr.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rr.Code, rr.Body.String())
	}
	var info gea.SessionInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "alpha" || info.Tenant != "acme" {
		t.Fatalf("created info = %+v", info)
	}

	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"alpha"}`); rr.Code != http.StatusConflict {
		t.Errorf("double create = %d, want 409: %s", rr.Code, rr.Body.String())
	}
	if rr := do(t, mux, http.MethodGet, "/session/alpha", ""); rr.Code != http.StatusOK {
		t.Errorf("get = %d", rr.Code)
	}
	if rr := do(t, mux, http.MethodGet, "/session/ghost", ""); rr.Code != http.StatusNotFound {
		t.Errorf("unknown get = %d, want 404", rr.Code)
	}

	// Run the same operator twice: computed, then a cache hit with an
	// identical wire body.
	runBody := `{"op":"aggregate","params":{"tissue":"brain"}}`
	first := do(t, mux, http.MethodPost, "/session/alpha/run", runBody)
	if first.Code != http.StatusOK {
		t.Fatalf("first run = %d: %s", first.Code, first.Body.String())
	}
	second := do(t, mux, http.MethodPost, "/session/alpha/run", runBody)
	if second.Code != http.StatusOK {
		t.Fatalf("second run = %d: %s", second.Code, second.Body.String())
	}
	var r1, r2 map[string]any
	if err := json.Unmarshal(first.Body.Bytes(), &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	if r1["source"] != "computed" || r2["source"] != "hit" {
		t.Errorf("sources = %v, %v; want computed then hit", r1["source"], r2["source"])
	}
	if r2["cached"] != true {
		t.Errorf("hit not flagged cached: %v", r2["cached"])
	}
	if !reflect.DeepEqual(r1["result"], r2["result"]) {
		t.Error("cached wire body diverges from the computed one")
	}
	if r1["units"] != r2["units"] {
		t.Errorf("hit units %v != computed units %v", r2["units"], r1["units"])
	}

	rr = do(t, mux, http.MethodGet, "/session/alpha/lineage", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("lineage = %d", rr.Code)
	}
	var nodes []gea.SessionLineageNode
	if err := json.Unmarshal(rr.Body.Bytes(), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Errorf("lineage lists %d nodes, want 2", len(nodes))
	}

	// Caller faults are 400s, not 500s.
	for _, body := range []string{
		`{"op":"transmogrify"}`,
		`{"op":"mine","params":{"k":"many"}}`,
		`{"op":"diff","params":{"a":"brain","b":"brain"}}`,
		`not json`,
		`{"op":"mine","params":{"tissue":"brain","tolerance":"200"}}`,
		`{"op":"mine","params":{"tissue":"brain","minsize":"0"}}`,
		`{"op":"mine","params":{"tissue":"brain","k":"100000"}}`,
		`{"op":"rangesearch","params":{"a":"brain","firsttag":"-5"}}`,
		`{"op":"rangesearch","params":{"a":"brain","firsttag":"100","lasttag":"5"}}`,
		`{"op":"rangesearch","params":{"a":"brain","lo":"NaN","hi":"5"}}`,
		`{"op":"rangesearch","params":{"a":"brain","lo":"0","hi":"NaN"}}`,
		`{"op":"select","params":{"tissue":"brain","minmean":"NaN"}}`,
	} {
		if rr := do(t, mux, http.MethodPost, "/session/alpha/run", body); rr.Code != http.StatusBadRequest {
			t.Errorf("run %s = %d, want 400", body, rr.Code)
		}
	}

	if rr := do(t, mux, http.MethodDelete, "/session/alpha", ""); rr.Code != http.StatusNoContent {
		t.Fatalf("delete = %d", rr.Code)
	}
	// Closed IDs answer 410 everywhere, never 404.
	if rr := do(t, mux, http.MethodGet, "/session/alpha", ""); rr.Code != http.StatusGone {
		t.Errorf("get after close = %d, want 410", rr.Code)
	}
	if rr := do(t, mux, http.MethodPost, "/session/alpha/run", runBody); rr.Code != http.StatusGone {
		t.Errorf("run after close = %d, want 410", rr.Code)
	}
	if rr := do(t, mux, http.MethodGet, "/session/alpha/lineage", ""); rr.Code != http.StatusGone {
		t.Errorf("lineage after close = %d, want 410", rr.Code)
	}
	if rr := do(t, mux, http.MethodDelete, "/session/ghost", ""); rr.Code != http.StatusNotFound {
		t.Errorf("delete unknown = %d, want 404", rr.Code)
	}
}

// TestServeSessionExpiry pins the 410 path for idle expiry and that the
// expired ID is re-creatable.
func TestServeSessionExpiry(t *testing.T) {
	_, mux := sessionMux(t, serveOptions{sessionExpiry: 10 * time.Millisecond})
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"idle"}`); rr.Code != http.StatusCreated {
		t.Fatalf("create = %d", rr.Code)
	}
	time.Sleep(30 * time.Millisecond)
	if rr := do(t, mux, http.MethodGet, "/session/idle", ""); rr.Code != http.StatusGone {
		t.Fatalf("expired get = %d, want 410", rr.Code)
	}
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"idle"}`); rr.Code != http.StatusCreated {
		t.Errorf("recreate expired = %d, want 201", rr.Code)
	}
}

// TestServeSessionTableFull pins the 503 + Retry-After path when the
// session table is at capacity.
func TestServeSessionTableFull(t *testing.T) {
	_, mux := sessionMux(t, serveOptions{maxSessions: 1})
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"a"}`); rr.Code != http.StatusCreated {
		t.Fatalf("create = %d", rr.Code)
	}
	rr := do(t, mux, http.MethodPost, "/session", `{"id":"b"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("create past capacity = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if rr := do(t, mux, http.MethodDelete, "/session/a", ""); rr.Code != http.StatusNoContent {
		t.Fatal("close")
	}
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"b"}`); rr.Code != http.StatusCreated {
		t.Errorf("create after close = %d, want 201", rr.Code)
	}
}

// TestServeSessionDrainRefuses pins that a draining server refuses new
// session work with 503 + Retry-After before touching the table.
func TestServeSessionDrainRefuses(t *testing.T) {
	gw, mux := sessionMux(t, serveOptions{})
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"a"}`); rr.Code != http.StatusCreated {
		t.Fatal("create")
	}
	gw.draining.Store(true)
	for _, probe := range []struct{ method, url, body string }{
		{http.MethodPost, "/session", `{"id":"b"}`},
		{http.MethodPost, "/session/a/run", `{"op":"aggregate"}`},
	} {
		rr := do(t, mux, probe.method, probe.url, probe.body)
		if rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s while draining = %d, want 503", probe.method, probe.url, rr.Code)
		}
		if rr.Header().Get("Retry-After") == "" {
			t.Errorf("%s %s: 503 without Retry-After", probe.method, probe.url)
		}
	}
}

// TestServeSessionBudgetPartial pins the degraded-mode contract at the
// HTTP layer: a budget-starved run is a 200 with the partial flagged,
// and the truncation is never served to the next caller.
func TestServeSessionBudgetPartial(t *testing.T) {
	_, mux := sessionMux(t, serveOptions{})
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"p"}`); rr.Code != http.StatusCreated {
		t.Fatal("create")
	}
	rr := do(t, mux, http.MethodPost, "/session/p/run",
		`{"op":"aggregate","params":{"tissue":"brain"},"budget":3}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("starved run = %d: %s", rr.Code, rr.Body.String())
	}
	var starved map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &starved); err != nil {
		t.Fatal(err)
	}
	if starved["partial"] != true {
		t.Fatalf("starved run not flagged partial: %s", rr.Body.String())
	}
	if starved["cached"] == true {
		t.Fatal("partial flagged cached")
	}
	// The next full-budget identical request must compute fresh — a hit
	// here would mean the cache served the truncation.
	rr = do(t, mux, http.MethodPost, "/session/p/run",
		`{"op":"aggregate","params":{"tissue":"brain"}}`)
	var full map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full["source"] != "computed" || full["partial"] == true {
		t.Fatalf("full run after partial: source=%v partial=%v, want computed/false",
			full["source"], full["partial"])
	}
}

// TestServeSessionRunWireForm pins the wire form of a run reply: one
// compact JSON line with its Content-Length, top-level keys in Response
// field order with result last, and the same value json.Marshal gives
// for the response the session hands out.
func TestServeSessionRunWireForm(t *testing.T) {
	gw, mux := sessionMux(t, serveOptions{})
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"wire"}`); rr.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rr.Code, rr.Body.String())
	}
	runBody := `{"op":"aggregate","params":{"tissue":"brain"}}`
	if rr := do(t, mux, http.MethodPost, "/session/wire/run", runBody); rr.Code != http.StatusOK {
		t.Fatalf("computing run = %d: %s", rr.Code, rr.Body.String())
	}
	rr := do(t, mux, http.MethodPost, "/session/wire/run", runBody)
	if rr.Code != http.StatusOK {
		t.Fatalf("hit run = %d: %s", rr.Code, rr.Body.String())
	}
	body := rr.Body.Bytes()

	if n := bytes.Count(body, []byte("\n")); n != 1 || body[len(body)-1] != '\n' {
		t.Errorf("body has %d newlines, want only the trailing one", n)
	}
	if got, want := rr.Header().Get("Content-Length"), strconv.Itoa(len(body)); got != want {
		t.Errorf("Content-Length = %q, body is %s bytes", got, want)
	}

	rt := reflect.TypeOf(gea.SessionResponse{})
	order := make(map[string]int, rt.NumField())
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		order[name] = i
	}
	keys := topLevelKeys(t, body)
	for i, k := range keys {
		idx, ok := order[k]
		if !ok {
			t.Errorf("key %q is not a Response field", k)
		} else if i > 0 && idx <= order[keys[i-1]] {
			t.Errorf("key %q comes after %q, against Response field order", k, keys[i-1])
		}
	}
	if len(keys) == 0 || keys[len(keys)-1] != "result" {
		t.Errorf("top-level keys %v, want result last", keys)
	}

	// Another hit hands out the same cached result; only the run's own
	// wall time and lineage node differ.
	resp, err := gw.sessions.Run(context.Background(), "wire", gea.SessionRequest{
		Op: "aggregate", Params: map[string]string{"tissue": "brain"},
	})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	marshaled, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var got, want map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(marshaled, &want); err != nil {
		t.Fatal(err)
	}
	for _, perRun := range []string{"wall_ns", "node"} {
		delete(got, perRun)
		delete(want, perRun)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("decoded body differs from the decoded json.Marshal of the response")
	}
}

// topLevelKeys lists the keys of a JSON object in wire order.
func topLevelKeys(t *testing.T, body []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("body does not open an object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestServeSessionBodyLimit pins the bound on session request bodies:
// 413 once a create or run body runs past maxSessionBody, 400 for any
// other decode error, and a padded body under the bound still runs.
func TestServeSessionBodyLimit(t *testing.T) {
	_, mux := sessionMux(t, serveOptions{})
	if rr := do(t, mux, http.MethodPost, "/session", `{"id":"lim"}`); rr.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rr.Code, rr.Body.String())
	}
	huge := strings.Repeat("a", maxSessionBody)
	pad := strings.Repeat(" ", maxSessionBody-100)
	for _, tc := range []struct {
		name, url, body string
		want            int
	}{
		{"create oversized", "/session", `{"id":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
		{"create malformed", "/session", `{"id":`, http.StatusBadRequest},
		{"run oversized", "/session/lim/run", `{"op":"aggregate","params":{"tissue":"` + huge + `"}}`, http.StatusRequestEntityTooLarge},
		{"run malformed", "/session/lim/run", `not json`, http.StatusBadRequest},
		{"run wrong type", "/session/lim/run", `{"op":7}`, http.StatusBadRequest},
		{"run padded under the bound", "/session/lim/run", `{"op":"aggregate",` + pad + `"params":{"tissue":"brain"}}`, http.StatusOK},
	} {
		if rr := do(t, mux, http.MethodPost, tc.url, tc.body); rr.Code != tc.want {
			t.Errorf("%s = %d, want %d: %.200s", tc.name, rr.Code, tc.want, rr.Body.String())
		}
	}
}

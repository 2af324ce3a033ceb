package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gea"
)

// ingestSystem builds a session over an empty append store, mirroring
// "gea serve -ingest" on a fresh directory.
func ingestSystem(t *testing.T) *gea.System {
	t.Helper()
	st, corpus, _, err := gea.OpenIngestStore(gea.OSFS, t.TempDir(), gea.DefaultIngestRetry())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gea.NewSystem(corpus, gea.SystemOptions{User: "ingest-test",
		Ingest: &gea.SystemIngestOptions{Store: st}})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// post runs one POST through the mux without a network listener.
func post(t *testing.T, mux *http.ServeMux, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	mux.ServeHTTP(rr, req)
	return rr
}

const ingestBody = `{"libraries":[
	{"name":"ing01","tissue":"brain","counts":{"AAAAAAAAAC":120,"ACGTACGTAC":3}},
	{"name":"ing02","tissue":"brain","cancer":true,"counts":{"AAAAAAAAAC":80}},
	{"name":"broken","tissue":"","counts":{"AAAAAAAAAC":1}}]}`

// TestServeIngestRoundTrip drives POST /ingest end to end: the valid
// libraries commit a generation reported in the body, the schema reject
// is quarantined inside a 200 (a bad library never fails its batch), and
// /healthz advertises the new generation.
func TestServeIngestRoundTrip(t *testing.T) {
	_, mux := newServeMux(ingestSystem(t), gea.NewObsCollector(), serveOptions{ingest: true})

	rr := post(t, mux, "/ingest", ingestBody)
	if rr.Code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", rr.Code, rr.Body.String())
	}
	var resp ingestResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	if resp.Generation != 2 {
		t.Errorf("generation after first append = %d, want 2", resp.Generation)
	}
	if len(resp.Appended) != 2 || resp.Gen == "" {
		t.Errorf("append incomplete: %+v", resp)
	}
	if len(resp.Rejected) != 1 || resp.QuarantineDir == "" {
		t.Errorf("schema reject not quarantined: %+v", resp)
	}

	rr = get(t, mux, "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", rr.Code)
	}
	// healthResponse's admission stats don't round-trip through JSON (the
	// state marshals as a string), so read just the generation.
	var health struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Generation != 2 {
		t.Errorf("/healthz generation = %d, want 2", health.Generation)
	}

	// Replaying the batch collides on every name: still a 200, fully
	// quarantined, generation unchanged.
	rr = post(t, mux, "/ingest", ingestBody)
	if rr.Code != http.StatusOK {
		t.Fatalf("replayed /ingest = %d: %s", rr.Code, rr.Body.String())
	}
	var resp2 ingestResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if len(resp2.Appended) != 0 || len(resp2.Rejected) != 3 || resp2.Generation != 2 {
		t.Errorf("replayed batch was not fully rejected: %+v", resp2)
	}
}

// TestServeIngestStatusMapping pins the endpoint's error contract: 405
// for the wrong method (with Allow), 400 for a payload that does not
// decode, 503 with Retry-After once draining, and 404 when the server
// was started without -ingest.
func TestServeIngestStatusMapping(t *testing.T) {
	gw, mux := newServeMux(ingestSystem(t), gea.NewObsCollector(), serveOptions{ingest: true})

	if rr := get(t, mux, "/ingest"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest = %d, want 405", rr.Code)
	} else if rr.Header().Get("Allow") != http.MethodPost {
		t.Errorf("405 without Allow: %q", rr.Header().Get("Allow"))
	}
	if rr := post(t, mux, "/ingest", "{not json"); rr.Code != http.StatusBadRequest {
		t.Errorf("bad payload = %d, want 400", rr.Code)
	}

	gw.draining.Store(true)
	rr := post(t, mux, "/ingest", ingestBody)
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("draining /ingest = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}

	_, plain := newServeMux(serveSystem(t), gea.NewObsCollector(), serveOptions{})
	if rr := post(t, plain, "/ingest", ingestBody); rr.Code != http.StatusNotFound {
		t.Errorf("/ingest without -ingest = %d, want 404", rr.Code)
	}
}

// TestServeMineParamError400 pins the statusmap fix on /mine: a tissue
// whose dataset is too small for the scan's K sweep makes the miner
// return a typed *FascicleParamError, and the handler must classify it
// as the caller's 400, not a 500 that poisons the server error rate.
func TestServeMineParamError400(t *testing.T) {
	_, mux := newServeMux(ingestSystem(t), gea.NewObsCollector(), serveOptions{ingest: true})

	// One library with a single distinct tag: K = NumTags*75/100 = 0, so
	// parameter validation rejects the mining run before any work.
	body := `{"libraries":[{"name":"tiny01","tissue":"tiny","counts":{"AAAAAAAAAC":5}}]}`
	if rr := post(t, mux, "/ingest", body); rr.Code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", rr.Code, rr.Body.String())
	}

	rr := get(t, mux, "/mine?tissue=tiny")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("/mine on a 1-tag tissue = %d, want 400; body: %s", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "fascicle: invalid") {
		t.Errorf("400 body %q does not carry the typed parameter error", rr.Body.String())
	}
}

// TestServeIngestSchemaError400 pins the statusmap fix on /ingest: a
// payload the batch decoder rejects surfaces its typed SchemaError in a
// 400 body, so the client sees the schema diagnosis instead of a bare
// server error.
func TestServeIngestSchemaError400(t *testing.T) {
	_, mux := newServeMux(ingestSystem(t), gea.NewObsCollector(), serveOptions{ingest: true})
	rr := post(t, mux, "/ingest", `{"libraries": "not an array"}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("undecodable batch = %d, want 400; body: %s", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "ingest: schema") {
		t.Errorf("400 body %q does not carry the typed schema error", rr.Body.String())
	}
}

// TestServeMineAfterAppends pins /mine as a query over the live
// generation. After two appends an ingest server names the fascicle a
// fresh server over the concatenated corpus names, at the same units;
// an identical repeat reports those units again; and no /mine changes
// the session's lineage nodes or catalog rows.
func TestServeMineAfterAppends(t *testing.T) {
	batches, res, err := gea.EmitBatches(gea.SmallConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	st, corpus, _, err := gea.OpenIngestStore(gea.OSFS, t.TempDir(), gea.DefaultIngestRetry())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gea.NewSystem(corpus, gea.SystemOptions{User: "ingest-test",
		Ingest:      &gea.SystemIngestOptions{Store: st},
		ResultCache: &gea.ResultCacheOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	_, mux := newServeMux(sys, gea.NewObsCollector(), serveOptions{ingest: true})

	// registry renders the session's lineage nodes and catalog row
	// counts, which a read-only /mine must leave alone.
	registry := func(sys *gea.System) string {
		var b strings.Builder
		fmt.Fprintln(&b, sys.Lineage.Names())
		for _, name := range sys.Store.Names() {
			tbl, err := sys.Store.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s=%d ", name, tbl.Len())
		}
		return b.String()
	}
	mine := func(sys *gea.System, mux *http.ServeMux) mineResponse {
		t.Helper()
		before := registry(sys)
		rr := get(t, mux, "/mine?tissue=brain")
		if rr.Code != http.StatusOK {
			t.Fatalf("/mine?tissue=brain = %d: %s", rr.Code, rr.Body.String())
		}
		var resp mineResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Fascicle == "" || resp.Partial {
			t.Fatalf("/mine found no full result: %+v", resp)
		}
		if after := registry(sys); after != before {
			t.Errorf("/mine changed the session registry:\nbefore %s\nafter  %s", before, after)
		}
		return resp
	}
	appendBatch := func(i int) {
		t.Helper()
		var body bytes.Buffer
		if err := gea.EncodeIngestBatch(&body, gea.IngestBatchFromLibraries(batches[i])); err != nil {
			t.Fatal(err)
		}
		if rr := post(t, mux, "/ingest", body.String()); rr.Code != http.StatusOK {
			t.Fatalf("/ingest batch %d = %d: %s", i, rr.Code, rr.Body.String())
		}
	}

	appendBatch(0)
	mine(sys, mux)
	appendBatch(1)
	appendBatch(2)
	got := mine(sys, mux)
	again := mine(sys, mux)

	fresh, err := gea.NewSystem(res.Corpus, gea.SystemOptions{User: "fresh-test"})
	if err != nil {
		t.Fatal(err)
	}
	_, freshMux := newServeMux(fresh, gea.NewObsCollector(), serveOptions{})
	want := mine(fresh, freshMux)
	if got.Fascicle != want.Fascicle || got.Units != want.Units {
		t.Errorf("after appends /mine = %s at %d units, fresh server = %s at %d units",
			got.Fascicle, got.Units, want.Fascicle, want.Units)
	}
	if again.Fascicle != got.Fascicle || again.Units != got.Units {
		t.Errorf("repeated /mine = %s at %d units, first = %s at %d units",
			again.Fascicle, again.Units, got.Fascicle, got.Units)
	}
}

package main

import (
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"testing"

	"gea"
)

// fuzzRunBudget bounds every fuzzed run, so a mine over a whole tissue
// stops early with a partial result instead of running to completion.
const fuzzRunBudget = 5000

// FuzzSessionRun posts session run bodies whose op name and two param
// key/value pairs come from the fuzzer. Whatever the params, the reply
// is a result (200) or a caller fault (400), never a server fault; a
// 413 is allowed only for a body past the session body cap.
func FuzzSessionRun(f *testing.F) {
	for _, s := range [][5]string{
		// Caller faults that once answered 500.
		{"mine", "tissue", "brain", "tolerance", "200"},
		{"mine", "tissue", "brain", "minsize", "0"},
		{"mine", "tissue", "brain", "k", "100000"},
		{"rangesearch", "a", "brain", "firsttag", "-5"},
		// One valid body per op.
		{"mine", "tissue", "brain", "k", "20"},
		{"aggregate", "tissue", "brain", "median", "true"},
		{"diff", "a", "brain", "b", "breast"},
		{"topgap", "a", "brain", "b", "breast"},
		{"select", "tissue", "brain", "minmean", "10"},
		{"populate", "tissue", "brain", "", ""},
		{"rangesearch", "a", "brain", "hi", "50"},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4])
	}
	_, mux := sessionMux(f, serveOptions{})
	if rr := do(f, mux, http.MethodPost, "/session", `{"id":"fuzz"}`); rr.Code != http.StatusCreated {
		f.Fatalf("create = %d: %s", rr.Code, rr.Body.String())
	}
	f.Fuzz(func(t *testing.T, op, k1, v1, k2, v2 string) {
		body, err := json.Marshal(gea.SessionRequest{
			Op:     op,
			Params: map[string]string{k1: v1, k2: v2},
			Budget: fuzzRunBudget,
		})
		if err != nil {
			t.Fatal(err)
		}
		rr := do(t, mux, http.MethodPost, "/session/fuzz/run", string(body))
		switch {
		case rr.Code == http.StatusOK, rr.Code == http.StatusBadRequest:
		case rr.Code == http.StatusRequestEntityTooLarge && len(body) > maxSessionBody:
		default:
			t.Fatalf("run %s = %d: %s", body, rr.Code, rr.Body.String())
		}
	})
}

// FuzzMineQuery sends GET /mine with fuzzed raw tissue and priority
// values, URL-encoded so that any string makes a valid request, to a
// server whose work budget stops a real tissue's search early. The
// reply is a result or a budget partial (200) or a caller fault (400),
// never a server fault.
func FuzzMineQuery(f *testing.F) {
	gw, mux := sessionMux(f, serveOptions{limits: gea.ExecLimits{Budget: fuzzRunBudget}})
	var tissues []string
	for tissue := range gw.sys.TissueTypes() {
		tissues = append(tissues, tissue)
	}
	sort.Strings(tissues)
	f.Add("", "")
	f.Add("noSuchTissue", "")
	for _, tissue := range tissues {
		f.Add(tissue, "")
	}
	f.Add(tissues[0], "low")
	f.Fuzz(func(t *testing.T, tissue, priority string) {
		q := url.Values{"tissue": {tissue}, "priority": {priority}}
		rr := do(t, mux, http.MethodGet, "/mine?"+q.Encode(), "")
		if rr.Code != http.StatusOK && rr.Code != http.StatusBadRequest {
			t.Fatalf("/mine?%s = %d: %s", q.Encode(), rr.Code, rr.Body.String())
		}
	})
}

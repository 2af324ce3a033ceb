package main

// Session routes for "gea serve": create a named session scoped to a
// tenant, run read-only algebra operators by name through the
// generation-keyed result cache, fetch the lineage the runs recorded,
// and close it. Every session handler maps faults through the server's
// one classifier, writeError: 400 for caller errors, 404 unknown vs 410
// expired, 409 double create, 429 admission timeout and 503
// overload/draining (both with Retry-After), 500 otherwise. Request
// bodies are read through a maxSessionBody bound, and one that runs
// past it is a 413.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"gea"
)

// tenantOf extracts the request's tenant: the X-Tenant header wins,
// then ?tenant=; empty means the anonymous tenant, which is never
// shaped or tracked.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return r.URL.Query().Get("tenant")
}

// maxSessionBody bounds a session create or run body. A run body is
// about 100 bytes; anything near the bound is not a real request.
const maxSessionBody = 64 << 10

// decodeSessionBody decodes a JSON request body of at most
// maxSessionBody bytes into v. On failure it answers 413 for an
// oversized body and 400 for any other decode error, and returns false.
func decodeSessionBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSessionBody)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, fmt.Sprintf("bad %s body: %v", what, err), code)
	return false
}

// createSessionBody is the optional JSON body of POST /session.
type createSessionBody struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
}

// handleSessionCreate registers a session (POST /session). The ID may
// come from the JSON body or be generated; the tenant from the body,
// the X-Tenant header, or ?tenant=.
func (gw *gateway) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if gw.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	var body createSessionBody
	if r.ContentLength != 0 && !decodeSessionBody(w, r, "session", &body) {
		return
	}
	tenant := body.Tenant
	if tenant == "" {
		tenant = tenantOf(r)
	}
	info, err := gw.sessions.Create(body.ID, tenant)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleSessionGet reports a session's snapshot (GET /session/{id}),
// touching its idle timer.
func (gw *gateway) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	info, err := gw.sessions.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleSessionDelete closes a session (DELETE /session/{id}),
// cascading its lineage subtree.
func (gw *gateway) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := gw.sessions.Close(r.PathValue("id")); err != nil {
		writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSessionRun executes one operator (POST /session/{id}/run). A
// budget-stopped run is a 200 with the partial flagged — degraded mode
// working as designed, mirroring /mine.
func (gw *gateway) handleSessionRun(w http.ResponseWriter, r *http.Request) {
	if gw.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	id := r.PathValue("id")
	var req gea.SessionRequest
	if !decodeSessionBody(w, r, "run", &req) {
		return
	}
	ctx := r.Context()
	if gw.opts.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, gw.opts.requestTimeout)
		defer cancel()
	}
	ctx = gea.WithObsCollector(ctx, gw.trace)

	resp, err := gw.sessions.Run(ctx, id, req)
	if err != nil {
		if gea.IsBudget(err) {
			// The shaped work budget ran out before the operator could
			// return even a flagged partial: still the caller's 200, with
			// nothing cached (partials never are).
			writeJSON(w, http.StatusOK, gea.SessionResponse{
				Session: id, Op: req.Op, Partial: true, Source: "computed",
			})
			return
		}
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionLineage lists the session's recorded runs
// (GET /session/{id}/lineage).
func (gw *gateway) handleSessionLineage(w http.ResponseWriter, r *http.Request) {
	nodes, err := gw.sessions.Lineage(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, nodes)
}

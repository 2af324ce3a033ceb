package ingest

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"gea/internal/sage"
)

// BatchLibrary is one submitted library in the wire form the POST /ingest
// endpoint and the gea ingest command accept: tags as their 10-base
// strings, counts as raw (pre-cleaning) tag counts.
type BatchLibrary struct {
	Name   string             `json:"name"`
	Tissue string             `json:"tissue"`
	Cancer bool               `json:"cancer,omitempty"`
	Cell   bool               `json:"cell_line,omitempty"`
	Counts map[string]float64 `json:"counts"`
}

// Batch is one append submission.
type Batch struct {
	Libraries []BatchLibrary `json:"libraries"`
}

// MaxBatchBytes bounds a decoded submission; DecodeBatch refuses larger
// payloads so a hostile client cannot balloon the server.
const MaxBatchBytes = 64 << 20

// EncodeBatch writes the JSON wire form.
func EncodeBatch(w io.Writer, b Batch) error {
	enc := json.NewEncoder(w)
	return enc.Encode(b)
}

// DecodeBatch reads the JSON wire form, bounded by MaxBatchBytes.
func DecodeBatch(r io.Reader) (Batch, error) {
	var b Batch
	dec := json.NewDecoder(io.LimitReader(r, MaxBatchBytes))
	if err := dec.Decode(&b); err != nil {
		return Batch{}, &SchemaError{Reason: fmt.Sprintf("bad batch payload: %v", err)}
	}
	return b, nil
}

// BatchFromLibraries converts generator output (sagegen.EmitBatches) into
// the wire form, so geabench and the gea ingest command feed the server
// the exact corpus the tests replay locally.
func BatchFromLibraries(libs []*sage.Library) Batch {
	b := Batch{Libraries: make([]BatchLibrary, 0, len(libs))}
	for _, l := range libs {
		bl := BatchLibrary{
			Name:   l.Meta.Name,
			Tissue: l.Meta.Tissue,
			Cancer: l.Meta.State == sage.Cancer,
			Cell:   l.Meta.Source == sage.CellLine,
			Counts: make(map[string]float64, len(l.Counts)),
		}
		for t, cnt := range l.Counts {
			bl.Counts[t.String()] = cnt
		}
		b.Libraries = append(b.Libraries, bl)
	}
	return b
}

// Rejection records one library that failed screening and was diverted to
// quarantine instead of entering the corpus.
type Rejection struct {
	// Name is the submitted library name (possibly empty or unusable —
	// that may be exactly why it was rejected).
	Name string
	// Err is the *SchemaError describing the violation.
	Err error
}

func (r Rejection) String() string { return fmt.Sprintf("%s: %v", r.Name, r.Err) }

// Screen validates a batch against the library names already in the
// corpus. Valid submissions come back as ready-to-append libraries in
// submission order; invalid ones come back as Rejections, one per broken
// library — a bad library never blocks the rest of its batch.
func Screen(b Batch, existing map[string]bool) (valid []*sage.Library, rejected []Rejection) {
	seen := make(map[string]bool, len(b.Libraries))
	for _, bl := range b.Libraries {
		counts, err := screenOne(bl, existing, seen)
		if err != nil {
			rejected = append(rejected, Rejection{Name: bl.Name, Err: err})
			continue
		}
		seen[bl.Name] = true
		meta := sage.LibraryMeta{Name: bl.Name, Tissue: bl.Tissue}
		if bl.Cancer {
			meta.State = sage.Cancer
		}
		if bl.Cell {
			meta.Source = sage.CellLine
		}
		l := sage.NewLibrary(meta)
		l.Counts = counts
		l.RefreshMeta()
		valid = append(valid, l)
	}
	return valid, rejected
}

// screenOne validates one submitted library and returns its counts keyed
// by parsed tag. ParseTag accepts either case, so two spellings of one
// tag would collide on a single TagID; such a library is rejected rather
// than keeping whichever count map iteration happened to visit last.
func screenOne(bl BatchLibrary, existing, seen map[string]bool) (map[sage.TagID]float64, error) {
	if bl.Name == "" {
		return nil, &SchemaError{Reason: "empty library name"}
	}
	if strings.ContainsAny(bl.Name, "/\\") {
		return nil, &SchemaError{Lib: bl.Name, Reason: "name contains a path separator"}
	}
	if existing[bl.Name] {
		return nil, &SchemaError{Lib: bl.Name, Reason: "library already in the corpus"}
	}
	if seen[bl.Name] {
		return nil, &SchemaError{Lib: bl.Name, Reason: "duplicate name within the batch"}
	}
	if bl.Tissue == "" {
		return nil, &SchemaError{Lib: bl.Name, Reason: "empty tissue type"}
	}
	if len(bl.Counts) == 0 {
		return nil, &SchemaError{Lib: bl.Name, Reason: "no tag counts"}
	}
	counts := make(map[sage.TagID]float64, len(bl.Counts))
	for ts, cnt := range bl.Counts {
		tag, err := sage.ParseTag(ts)
		if err != nil {
			return nil, &SchemaError{Lib: bl.Name, Reason: fmt.Sprintf("bad tag %q: %v", ts, err)}
		}
		if cnt < 0 || math.IsNaN(cnt) || math.IsInf(cnt, 0) {
			return nil, &SchemaError{Lib: bl.Name, Reason: fmt.Sprintf("tag %s has invalid count %g", ts, cnt)}
		}
		if _, dup := counts[tag]; dup {
			return nil, &SchemaError{Lib: bl.Name, Reason: fmt.Sprintf("tag %s is named twice (tags are case-insensitive)", tag)}
		}
		counts[tag] = cnt
	}
	return counts, nil
}

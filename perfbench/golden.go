package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// Golden fingerprints pin the content of a fixed set of results over the
// default seed's corpus. A fingerprint hashes the result after
// canonicalization (whitespace dropped, numbers re-formatted), so a
// change of wire encoding alone is not a failure, while any change of a
// result's values, order or fields is. Regenerate the file with
// -record-golden only for a deliberate change of results, in a PR of its
// own that says so.

// defaultSeed is the seed the golden fingerprints describe.
const defaultSeed = 1

// goldenPath is the fingerprint file, relative to the checkout root.
const goldenPath = "perfbench/golden/seed-1.json"

type goldenEntry struct {
	Key     string `json:"key"`
	Units   int64  `json:"units"`
	Content string `json:"content"`
}

type goldenFile struct {
	Seed    int64         `json:"seed"`
	Note    string        `json:"note"`
	Entries []goldenEntry `json:"entries"`
}

// goldenRequests is the fixed result set: every session operator (the
// whole-corpus reads included) and the legacy /mine, each on inputs cheap
// enough to check in every run.
func goldenRequests() []request {
	return []request{
		runReq("aggregate", "tissue", "kidney"),
		runReq("aggregate", "median", "true"),
		runReq("select", "tissue", "colon", "minmean", "50"),
		runReq("select", "minmean", "100"),
		runReq("diff", "a", "skin", "b", "kidney"),
		runReq("topgap", "a", "brain", "b", "breast", "x", "10"),
		runReq("populate", "tissue", "skin"),
		runReq("mine", "tissue", "skin"),
		runReq("rangesearch", "a", "skin", "b", "kidney", "lo", "1", "hi", "9", "lasttag", "131071"),
		legacyReq("skin"),
	}
}

// canonWriter hashes a JSON byte stream in canonical form: whitespace
// outside strings is dropped and every number is re-formatted from its
// float64 value. Strings and key order are kept as sent. Members of the
// top-level object named in drop are left out.
type canonWriter struct {
	h     hash.Hash
	buf   []byte
	inStr bool
	esc   bool
	num   []byte
	drop  map[string]bool
	// depth is the nesting level; the top-level object is depth 1.
	depth int
	// A top-level key is held back in key until its ':' decides whether
	// the member is dropped; skipping discards a dropped member's value.
	expectKey, inKey, skipping bool
	key                        []byte
}

func newCanonWriter(drop ...string) *canonWriter {
	w := &canonWriter{h: sha256.New(), drop: map[string]bool{}}
	for _, k := range drop {
		w.drop[k] = true
	}
	return w
}

func (w *canonWriter) emit(c byte) {
	switch {
	case w.skipping:
	case w.inKey:
		w.key = append(w.key, c)
	default:
		w.buf = append(w.buf, c)
	}
}

func (w *canonWriter) Write(p []byte) (int, error) {
	for _, c := range p {
		if w.inStr {
			w.emit(c)
			switch {
			case w.esc:
				w.esc = false
			case c == '\\':
				w.esc = true
			case c == '"':
				w.inStr = false
			}
			continue
		}
		if len(w.num) > 0 && isNumberByte(c) || len(w.num) == 0 && (c == '-' || c >= '0' && c <= '9') {
			w.num = append(w.num, c)
			continue
		}
		if err := w.flushNumber(); err != nil {
			return 0, err
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '"':
			w.inStr = true
			if w.depth == 1 && w.expectKey {
				w.inKey, w.expectKey = true, false
				w.key = w.key[:0]
			}
		case ':':
			if w.inKey {
				w.inKey = false
				if w.drop[strings.Trim(string(w.key), `"`)] {
					w.skipping = true
					continue
				}
				w.buf = append(w.buf, w.key...)
			}
		case '{', '[':
			w.depth++
			if w.depth == 1 && c == '{' {
				w.expectKey = true
			}
		case '}', ']':
			w.depth--
			if w.depth == 0 {
				w.skipping = false
			}
		case ',':
			if w.depth == 1 {
				w.expectKey = true
				if w.skipping {
					w.skipping = false
					continue
				}
			}
		}
		w.emit(c)
	}
	if len(w.buf) > 64<<10 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
	return len(p), nil
}

func isNumberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

func (w *canonWriter) flushNumber() error {
	if len(w.num) == 0 {
		return nil
	}
	v, err := strconv.ParseFloat(string(w.num), 64)
	if err != nil {
		return fmt.Errorf("canonical json: number %q: %w", w.num, err)
	}
	if !w.skipping {
		w.buf = strconv.AppendFloat(w.buf, v, 'g', -1, 64)
	}
	w.num = w.num[:0]
	return nil
}

// sum finishes the stream and returns its hex digest.
func (w *canonWriter) sum() (string, error) {
	if err := w.flushNumber(); err != nil {
		return "", err
	}
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
	return hex.EncodeToString(w.h.Sum(nil)), nil
}

// fingerprint runs one golden request and returns its units and content
// digest. It is never on a timed path.
func fingerprint(c *httpClient, sid string, workers int, r request) (int64, string, error) {
	// A populate result carries its evaluation statistics, which differ
	// by engine by design (blocks skipped, conditions checked); the
	// fingerprint pins the populated ENUM.
	var cw *canonWriter
	if r.Op == "populate" {
		cw = newCanonWriter("stats")
	} else {
		cw = newCanonWriter()
	}
	if r.Legacy {
		ex, err := c.do(http.MethodGet, r.path(sid), nil, nil)
		if err != nil {
			return 0, "", err
		}
		if ex.Status != http.StatusOK {
			return 0, "", fmt.Errorf("status %d: %s", ex.Status, ex.Body)
		}
		var m legacyReply
		if err := json.Unmarshal(ex.Body, &m); err != nil {
			return 0, "", err
		}
		if m.Partial || m.Fascicle == "" {
			return 0, "", fmt.Errorf("legacy /mine: partial=%v fascicle=%q", m.Partial, m.Fascicle)
		}
		b, _ := json.Marshal(map[string]any{"tissue": m.Tissue, "fascicle": m.Fascicle, "units": m.Units})
		cw.Write(b)
		d, err := cw.sum()
		return m.Units, d, err
	}
	sc := newReplyScanner(cw)
	ex, err := c.do(http.MethodPost, r.path(sid), r.body(workers), sc)
	if err != nil {
		return 0, "", err
	}
	if ex.Status != http.StatusOK {
		return 0, "", fmt.Errorf("status %d: %s", ex.Status, ex.Body)
	}
	h, _, err := sc.finish()
	if err != nil {
		return 0, "", err
	}
	if h.Partial {
		return 0, "", fmt.Errorf("partial result")
	}
	d, err := cw.sum()
	return h.Units, d, err
}

// goldenHalf is the part of the golden requests an untraced run of seed
// checks: the populate, whose 98 MB reply dominates the check's cost,
// and half of the others, alternating with the seed's parity. Ten runs
// on consecutive seeds check every fingerprint at least five times while
// each run pays for about half the set, and every run leaves the
// auxiliary server in the same state for the append probe that follows.
func goldenHalf(seed int64) []request {
	var out []request
	i := 0
	for _, r := range goldenRequests() {
		if r.Op == "populate" {
			out = append(out, r)
			continue
		}
		if int64(i%2) == (seed%2+2)%2 {
			out = append(out, r)
		}
		i++
	}
	return out
}

// checkGolden fingerprints reqs on a server over the default seed's
// corpus and compares them with the recorded file; with record set it
// writes the file from them instead. It returns one line per mismatch.
func checkGolden(c *httpClient, workers int, path string, reqs []request, record bool) ([]string, error) {
	sid := "golden"
	if err := openSession(c, sid, "golden"); err != nil {
		return nil, err
	}
	got := goldenFile{
		Seed: defaultSeed,
		Note: "Content fingerprints of perfbench's golden requests over the full corpus of seed 1. " +
			"Regenerate (perfbench -record-golden) only for a deliberate change of results, in its own PR.",
	}
	checked := map[string]bool{}
	for _, r := range reqs {
		units, digest, err := fingerprint(c, sid, workers, r)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", r.key(), err)
		}
		got.Entries = append(got.Entries, goldenEntry{Key: r.key(), Units: units, Content: digest})
		checked[r.key()] = true
	}
	if record {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, append(b, '\n'), 0o644)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all, want goldenFile
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, e := range all.Entries {
		if checked[e.Key] {
			want.Entries = append(want.Entries, e)
		}
	}
	return compareGolden(want, got), nil
}

// compareGolden lists every entry whose units or content differ, and
// every entry missing on either side.
func compareGolden(want, got goldenFile) []string {
	var bad []string
	have := map[string]goldenEntry{}
	for _, e := range got.Entries {
		have[e.Key] = e
	}
	for _, w := range want.Entries {
		g, ok := have[w.Key]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("golden %s: not checked", w.Key))
		case g.Units != w.Units:
			bad = append(bad, fmt.Sprintf("golden %s: units %d, recorded %d", w.Key, g.Units, w.Units))
		case g.Content != w.Content:
			bad = append(bad, fmt.Sprintf("golden %s: content %s, recorded %s", w.Key, g.Content[:12], w.Content[:12]))
		}
		delete(have, w.Key)
	}
	for k := range have {
		bad = append(bad, fmt.Sprintf("golden %s: no recorded fingerprint", k))
	}
	return bad
}

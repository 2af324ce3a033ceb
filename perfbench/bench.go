package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// checker holds a run's correctness state: the units and result checksum
// first seen for every (generation, key), and every violation found.
type checker struct {
	mu         sync.Mutex
	units      map[string]int64
	sums       map[string]uint64
	violations []string
}

func newChecker() *checker {
	return &checker{units: map[string]int64{}, sums: map[string]uint64{}}
}

func (c *checker) violate(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) < 50 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failed() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

// consistent records units and checksum for key on first sight and
// reports whether a later reply agrees with them.
func (c *checker) consistent(key string, units int64, sum uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	u, seen := c.units[key]
	if !seen {
		c.units[key] = units
		c.sums[key] = sum
		return true
	}
	ok := true
	if u != units {
		ok = false
		c.violations = append(c.violations, fmt.Sprintf("%s: units %d, first reply had %d", key, units, u))
	}
	if c.sums[key] != sum {
		ok = false
		c.violations = append(c.violations, fmt.Sprintf("%s: result checksum %016x, first reply had %016x", key, sum, c.sums[key]))
	}
	return ok
}

// generations tracks which corpus generation a reply may carry. Without
// ingestion it is fixed. With it, a reply sent after the writer saw
// generation g was acknowledged must carry at least g, and at most one
// more than the writer has seen acknowledged once the reply is read (the
// writer has at most one append in flight).
type generations struct {
	acked  atomic.Uint64
	moving bool
}

func (g *generations) low() uint64 { return g.acked.Load() }

func (g *generations) high() uint64 {
	if g.moving {
		return g.acked.Load() + 1
	}
	return g.acked.Load()
}

// sample is one request as the client saw it.
type sample struct {
	req request
	// ok: a 200 whose every check passed. refused: a 429/503 or a
	// transport failure, counted as failed but not as incorrect.
	ok, refused bool
	ex          exchange
	hdr         runHeader
	// spans are the operator root spans of a computed reply and
	// traceDur the time spent reading them (traced runs only).
	spans    []spanRecord
	traceDur time.Duration
}

// legacyReply is the body of GET /mine?tissue=.
type legacyReply struct {
	Tissue   string `json:"tissue"`
	Fascicle string `json:"fascicle"`
	Units    int64  `json:"units"`
	Partial  bool   `json:"partial"`
}

// send runs one request and checks its reply: status 200, not partial,
// a generation inside the expected window, and units and result checksum
// equal to those of every other reply to the same key and generation.
func send(c *httpClient, ck *checker, sid string, workers int, r request, gens *generations) sample {
	s := sample{req: r}
	lo := gens.low()
	var sc *replyScanner
	var ex exchange
	var err error
	if r.Legacy {
		ex, err = c.do(http.MethodGet, r.path(sid), nil, nil)
	} else {
		sc = newReplyScanner(nil)
		ex, err = c.do(http.MethodPost, r.path(sid), r.body(workers), sc)
	}
	s.ex = ex
	switch {
	case err != nil:
		s.refused = true
		logf("%s: %v", r.key(), err)
		return s
	case ex.Status == http.StatusTooManyRequests || ex.Status == http.StatusServiceUnavailable:
		s.refused = true
		return s
	case ex.Status != http.StatusOK:
		ck.violate("%s: status %d: %s", r.key(), ex.Status, bytes.TrimSpace(ex.Body))
		return s
	}
	if r.Legacy {
		var m legacyReply
		if err := json.Unmarshal(ex.Body, &m); err != nil {
			ck.violate("%s: %v", r.key(), err)
			return s
		}
		if m.Partial || m.Fascicle == "" {
			ck.violate("%s: partial=%v fascicle=%q", r.key(), m.Partial, m.Fascicle)
			return s
		}
		s.ok = ck.consistent(r.key(), m.Units, uint64(crc32.ChecksumIEEE([]byte(m.Fascicle))))
		return s
	}
	h, sum, err := sc.finish()
	if err != nil {
		ck.violate("%s: %v", r.key(), err)
		return s
	}
	s.hdr = h
	if h.Partial {
		ck.violate("%s: partial result", r.key())
		return s
	}
	if hi := gens.high(); h.Generation < lo || h.Generation > hi {
		ck.violate("%s: generation %d outside the expected [%d, %d]", r.key(), h.Generation, lo, hi)
		return s
	}
	s.ok = ck.consistent(fmt.Sprintf("gen %d: %s", h.Generation, r.key()), h.Units, sum)
	return s
}

// ingestReply is the body of POST /ingest.
type ingestReply struct {
	Appended   []string          `json:"appended"`
	Rejected   []json.RawMessage `json:"rejected"`
	Generation uint64            `json:"generation"`
}

// appendResult is one POST /ingest as the writer saw it.
type appendResult struct {
	ok bool
	ms float64
	// libs counts the libraries committed; rssMB is the server's VmRSS
	// right after the acknowledgement.
	libs  int
	rssMB float64
}

// postBatch sends one append batch and checks that every library
// committed as exactly one new generation.
func postBatch(c *httpClient, ck *checker, body []byte, size int, gens *generations, pid int) appendResult {
	prev := gens.acked.Load()
	ex, err := c.do(http.MethodPost, "/ingest", body, nil)
	res := appendResult{ms: ex.ms()}
	if err != nil {
		logf("POST /ingest: %v", err)
		return res
	}
	if ex.Status != http.StatusOK {
		if ex.Status != http.StatusTooManyRequests && ex.Status != http.StatusServiceUnavailable {
			ck.violate("POST /ingest: status %d: %s", ex.Status, bytes.TrimSpace(ex.Body))
		}
		return res
	}
	var rep ingestReply
	if err := json.Unmarshal(ex.Body, &rep); err != nil {
		ck.violate("POST /ingest: %v", err)
		return res
	}
	if len(rep.Appended) != size || len(rep.Rejected) != 0 || rep.Generation != prev+1 {
		ck.violate("POST /ingest: appended %d of %d, %d quarantined, generation %d after %d",
			len(rep.Appended), size, len(rep.Rejected), rep.Generation, prev)
		return res
	}
	gens.acked.Store(rep.Generation)
	res.ok, res.libs = true, len(rep.Appended)
	res.rssMB, _ = statusMB(pid, "VmRSS")
	return res
}

// healthz is the part of GET /healthz the benchmark reads.
type healthz struct {
	Generation uint64 `json:"generation"`
	Admission  struct {
		Rejected  int64 `json:"rejected"`
		TimedOut  int64 `json:"timed_out"`
		AvgWaitNS int64 `json:"avg_wait_ns"`
	} `json:"admission"`
	Cache struct {
		Bytes   int64 `json:"bytes"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Shared  int64 `json:"shared"`
		Evicted int64 `json:"evicted"`
	} `json:"cache"`
}

// openSession creates the session id for tenant.
func openSession(c *httpClient, id, tenant string) error {
	body, err := json.Marshal(map[string]string{"id": id, "tenant": tenant})
	if err != nil {
		return err
	}
	ex, err := c.do(http.MethodPost, "/session", body, nil)
	if err != nil {
		return err
	}
	if ex.Status != http.StatusCreated {
		return fmt.Errorf("POST /session: status %d: %s", ex.Status, bytes.TrimSpace(ex.Body))
	}
	return nil
}

// timed is what a workload's timed phase leaves behind.
type timed struct {
	samples []sample
	// wall spans the whole phase; readWall the reads alone (they end
	// with the writer's last commit on ingest-mixed).
	wall, readWall time.Duration
	// cpuS is the server's user+system CPU over the phase; loadgenCPUS
	// the load generator's own.
	cpuS, loadgenCPUS float64
	// appends and writerWall describe ingest-mixed's writer.
	appends    []appendResult
	writerWall time.Duration
	// rss0MB is the server's VmRSS as the phase starts.
	rss0MB float64
	// sessions lists the run's session ids; clients counts the
	// connections that read.
	sessions []string
	clients  int
}

// completed counts the samples that passed every check.
func (t *timed) completed() int {
	n := 0
	for _, s := range t.samples {
		if s.ok {
			n++
		}
	}
	return n
}

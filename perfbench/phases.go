package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phase runs the workload's untimed preparation (sessions, warm-up or
// cache prefill) and then its timed phase on srv. With traced set it
// reads the server's counters just before and after the timed phase and
// joins the operator spans to every computed reply.
func (r *runner) phase(srv *server, traced bool) (*timed, [2]serverCounters, error) {
	switch r.workload {
	case "explore-cold":
		return r.explore(srv, traced)
	case "shared-hot":
		return r.sharedHot(srv, traced)
	default:
		return r.ingestMixed(srv, traced)
	}
}

// measure times body and takes the server's and the load generator's
// CPU and the server's VmRSS around it.
func measure(srv *server, traced bool, body func(t *timed)) (*timed, [2]serverCounters, error) {
	var cs [2]serverCounters
	ctl := newHTTPClient(srv.base)
	defer ctl.close()
	var err error
	if traced {
		if cs[0], err = readCounters(ctl); err != nil {
			return nil, cs, err
		}
	}
	t := &timed{}
	t.rss0MB, _ = statusMB(srv.pid, "VmRSS")
	cpu0, err := cpuSeconds(srv.pid)
	if err != nil {
		return nil, cs, err
	}
	self0 := selfCPU()
	start := time.Now()
	body(t)
	t.wall = time.Since(start)
	if t.readWall == 0 {
		t.readWall = t.wall
	}
	t.loadgenCPUS = selfCPU() - self0
	cpu1, err := cpuSeconds(srv.pid)
	if err != nil {
		return nil, cs, err
	}
	t.cpuS = cpu1 - cpu0
	if traced {
		if cs[1], err = readCounters(ctl); err != nil {
			return nil, cs, err
		}
	}
	return t, cs, nil
}

// selfCPU is the load generator's own user+system CPU in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// joinSpans attaches the operator root spans of a computed reply, read
// from /debug/spans on the client's own connection.
func joinSpans(c *httpClient, s *sample) {
	if !s.ok || s.req.Legacy || s.hdr.Source != "computed" {
		return
	}
	start := time.Now()
	defer func() { s.traceDur = time.Since(start) }()
	var roots []spanRecord
	if err := c.getJSON("/debug/spans", &roots); err != nil {
		logf("GET /debug/spans: %v", err)
		return
	}
	s.spans = matchRoots(roots, s.hdr.Units)
}

// baseGeneration reads the generation a fresh server serves.
func baseGeneration(c *httpClient) (*generations, error) {
	var h healthz
	if err := c.getJSON("/healthz", &h); err != nil {
		return nil, err
	}
	g := &generations{}
	g.acked.Store(h.Generation)
	return g, nil
}

// explore runs explore-cold: one client with one tenant session sends
// the seeded exploratory sequence, in which no key repeats.
func (r *runner) explore(srv *server, traced bool) (*timed, [2]serverCounters, error) {
	c := newHTTPClient(srv.base)
	defer c.close()
	sid := "explore"
	if err := openSession(c, sid, "analyst"); err != nil {
		return nil, [2]serverCounters{}, err
	}
	gens, err := baseGeneration(c)
	if err != nil {
		return nil, [2]serverCounters{}, err
	}
	seq := exploreSequence(r.seed)
	// Warm-up: two keys the sequence never uses.
	for _, w := range []request{
		runReq("select", "tissue", "skin", "minmean", "999"),
		runReq("topgap", "a", "skin", "b", "vascular", "x", "99"),
	} {
		if s := send(c, r.ck, sid, r.workers, w, gens); !s.ok {
			return nil, [2]serverCounters{}, fmt.Errorf("warm-up %s failed (status %d)", w.key(), s.ex.Status)
		}
	}
	t, cs, err := measure(srv, traced, func(t *timed) {
		for _, q := range seq {
			s := send(c, r.ck, sid, r.workers, q, gens)
			if traced {
				joinSpans(c, &s)
			}
			t.samples = append(t.samples, s)
		}
	})
	if t != nil {
		t.sessions, t.clients = []string{sid}, 1
	}
	return t, cs, err
}

// hotClients is shared-hot's client count: two, but never more than
// nproc.
func (r *runner) hotClients() int {
	if r.workers < 2 {
		return 1
	}
	return 2
}

// sharedHot runs shared-hot: an untimed pass computes every popular key
// once, then two clients with their own tenants' sessions send seeded
// sequences over the keys, every reply a cache hit.
func (r *runner) sharedHot(srv *server, traced bool) (*timed, [2]serverCounters, error) {
	n := r.hotClients()
	clients := make([]*httpClient, n)
	sids := make([]string, n)
	for i := range clients {
		clients[i] = newHTTPClient(srv.base)
		defer clients[i].close()
		sids[i] = fmt.Sprintf("hot%d", i+1)
		if err := openSession(clients[i], sids[i], fmt.Sprintf("team%d", i+1)); err != nil {
			return nil, [2]serverCounters{}, err
		}
	}
	gens, err := baseGeneration(clients[0])
	if err != nil {
		return nil, [2]serverCounters{}, err
	}
	keys := hotKeys(r.seed)
	for _, k := range allKeys(keys) {
		if s := send(clients[0], r.ck, sids[0], r.workers, k, gens); !s.ok {
			return nil, [2]serverCounters{}, fmt.Errorf("prefill %s failed (status %d)", k.key(), s.ex.Status)
		}
	}
	seqs := make([][]request, n)
	for i := range seqs {
		seqs[i] = hotSequence(keys, r.seed, i)
	}
	t, cs, err := measure(srv, traced, func(t *timed) {
		out := make([][]sample, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for _, q := range seqs[i] {
					s := send(clients[i], r.ck, sids[i], r.workers, q, gens)
					if traced {
						joinSpans(clients[i], &s)
					}
					out[i] = append(out[i], s)
				}
			}(i)
		}
		wg.Wait()
		for _, o := range out {
			t.samples = append(t.samples, o...)
		}
	})
	if t != nil {
		t.sessions, t.clients = sids, n
	}
	return t, cs, err
}

// ingestMixed runs ingest-mixed: a writer posts the seeded batches back
// to back while a reader cycles through a small fixed set of per-tissue
// and whole-corpus reads until the last commit (and for at least
// minReads requests).
func (r *runner) ingestMixed(srv *server, traced bool) (*timed, [2]serverCounters, error) {
	writer, reader := newHTTPClient(srv.base), newHTTPClient(srv.base)
	defer writer.close()
	defer reader.close()
	sid := "reader"
	if err := openSession(reader, sid, "dashboard"); err != nil {
		return nil, [2]serverCounters{}, err
	}
	gens, err := baseGeneration(reader)
	if err != nil {
		return nil, [2]serverCounters{}, err
	}
	gens.moving = true
	reads := ingestReads(r.seed)
	// Warm-up: one pass over the reads at the base generation.
	for _, q := range reads {
		if s := send(reader, r.ck, sid, r.workers, q, gens); !s.ok {
			return nil, [2]serverCounters{}, fmt.Errorf("warm-up %s failed (status %d)", q.key(), s.ex.Status)
		}
	}
	t, cs, err := measure(srv, traced, func(t *timed) {
		var done atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			start := time.Now()
			for _, b := range r.batches {
				t.appends = append(t.appends, postBatch(writer, r.ck, b, batchSize, gens, srv.pid))
			}
			t.writerWall = time.Since(start)
		}()
		start := time.Now()
		for i := 0; !done.Load() || i < minReads; i++ {
			s := send(reader, r.ck, sid, r.workers, reads[i%len(reads)], gens)
			if traced {
				joinSpans(reader, &s)
			}
			t.samples = append(t.samples, s)
		}
		t.readWall = time.Since(start)
		wg.Wait()
	})
	if t != nil {
		t.sessions, t.clients = []string{sid}, 1
	}
	return t, cs, err
}

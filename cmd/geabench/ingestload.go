package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"gea"
)

// This file holds the ingestion BENCH series. "geabench -ingest URL"
// streams a generated corpus into a running "gea serve -ingest" instance
// as POST /ingest batches, retrying 429/503 answers per the server's
// Retry-After advice exactly like the -serve load generator — the CI
// soak runs it concurrently with -serve query load to prove appends and
// reads coexist under drain.

// ingestReply is the subset of the server's /ingest body the loader reads.
type ingestReply struct {
	Gen        string   `json:"gen"`
	Appended   []string `json:"appended"`
	Rejected   []any    `json:"rejected"`
	Retries    int      `json:"retries"`
	Generation uint64   `json:"generation"`
}

// runIngestLoad streams the generated corpus into the server batch by
// batch. Batches go sequentially — the server serializes appends anyway —
// but each POST retries overload answers with capped Retry-After backoff,
// so a server busy with concurrent query load sheds us without data loss.
func runIngestLoad(e *env, baseURL string, batches int, prefix string) error {
	emitted, _, err := gea.EmitBatches(e.cfg, batches)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	health, err := fetchHealthz(client, baseURL)
	if err != nil {
		return fmt.Errorf("server unreachable: %w", err)
	}
	fmt.Printf("server at %s: status %q, state %q\n", baseURL, health.Status, health.State)
	fmt.Printf("streaming %d batches (name prefix %q)\n", len(emitted), prefix)

	var appended, rejected, retries, gaveUp int
	var lastGen uint64
	start := time.Now()
	for i, libs := range emitted {
		b := gea.IngestBatchFromLibraries(libs)
		// Generated names are position-deterministic, so a prefix keeps
		// repeated soaks against one server from colliding with the
		// corpus it was seeded with.
		for j := range b.Libraries {
			b.Libraries[j].Name = prefix + b.Libraries[j].Name
		}
		reply, nretries, err := postIngestBatch(client, baseURL, b)
		retries += nretries
		if err != nil {
			if reply == nil {
				// Retry budget exhausted on overload answers: count and
				// move on, like the -serve loader's gave-up bucket.
				gaveUp++
				fmt.Printf("  batch %d/%d: gave up: %v\n", i+1, len(emitted), err)
				continue
			}
			return err
		}
		appended += len(reply.Appended)
		rejected += len(reply.Rejected)
		lastGen = reply.Generation
		fmt.Printf("  batch %d/%d: appended %d -> %s (server generation %d)\n",
			i+1, len(emitted), len(reply.Appended), reply.Gen, reply.Generation)
	}
	wall := time.Since(start)

	libsPerSec := float64(appended) / wall.Seconds()
	fmt.Printf("streamed %d libraries in %v (%.1f libraries/s); %d quarantined, %d overload retries, %d batches given up\n",
		appended, wall.Round(time.Millisecond), libsPerSec, rejected, retries, gaveUp)
	if after, err := fetchHealthz(client, baseURL); err == nil {
		fmt.Printf("server state after load: %q\n", after.State)
	}
	e.bench = append(e.bench, benchRecord{
		Op: "serve.ingest", Workers: 1, WallNS: wall.Nanoseconds(),
		Wall: wall.Round(time.Microsecond).String(), Units: int64(appended),
		Reps: len(emitted), BatchSize: batchSizeOf(emitted), LibsPerSec: libsPerSec,
	})
	if appended == 0 && lastGen == 0 {
		return fmt.Errorf("no batch committed: %d given up, %d rejected", gaveUp, rejected)
	}
	return nil
}

// postIngestBatch POSTs one batch, honoring Retry-After on 429/503 (capped
// so a short soak cannot stall on one pessimistic estimate). A non-nil
// reply with a nil error is success; nil reply with an error means the
// retry budget ran out or the transport failed.
func postIngestBatch(client *http.Client, baseURL string, b gea.IngestBatch) (*ingestReply, int, error) {
	var body bytes.Buffer
	if err := gea.EncodeIngestBatch(&body, b); err != nil {
		return nil, 0, err
	}
	backoff := 50 * time.Millisecond
	retries := 0
	for attempt := 1; attempt <= serveLoadAttempts; attempt++ {
		resp, err := client.Post(baseURL+"/ingest", "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			return nil, retries, err
		}
		replyBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var reply ingestReply
			if err := json.Unmarshal(replyBody, &reply); err != nil {
				return nil, retries, fmt.Errorf("parsing /ingest reply: %w", err)
			}
			return &reply, retries, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			retries++
			d := backoff
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
					d = time.Duration(secs) * time.Second
				}
			}
			if d > 2*time.Second {
				d = 2 * time.Second
			}
			time.Sleep(d)
			backoff *= 2
		default:
			return nil, retries, fmt.Errorf("/ingest: status %d: %s", resp.StatusCode, replyBody)
		}
	}
	return nil, retries, fmt.Errorf("retry budget of %d exhausted", serveLoadAttempts)
}

// batchSizeOf reports the dominant (first) batch size of an emission.
func batchSizeOf(batches [][]*gea.Library) int {
	if len(batches) == 0 {
		return 0
	}
	return len(batches[0])
}

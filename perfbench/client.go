package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptrace"
	"strings"
	"time"
)

// clientTimeout bounds one request. A failed request is ranked at this
// latency, above every real one.
const clientTimeout = 120 * time.Second

// runHeader is every field of a POST /session/{id}/run reply that
// precedes "result".
type runHeader struct {
	Session    string `json:"session"`
	Op         string `json:"op"`
	Generation uint64 `json:"generation"`
	Units      int64  `json:"units"`
	Partial    bool   `json:"partial"`
	Source     string `json:"source"`
	Cached     bool   `json:"cached"`
	WallNS     int64  `json:"wall_ns"`
	Node       string `json:"node"`
}

var resultMarker = []byte(`"result":`)

// maxHeader bounds the bytes scanned for the "result" field.
const maxHeader = 64 << 10

// replyScanner consumes a session reply body in chunks of any size,
// keeps the header fields and checksums the result value as it streams,
// so the timed path never decodes a (possibly 100 MB) result. Content,
// when set, also receives the result bytes.
type replyScanner struct {
	hdr     []byte
	found   bool
	ieee    hash.Hash32
	castag  hash.Hash32
	content io.Writer
}

func newReplyScanner(content io.Writer) *replyScanner {
	return &replyScanner{
		ieee:    crc32.NewIEEE(),
		castag:  crc32.New(crc32.MakeTable(crc32.Castagnoli)),
		content: content,
	}
}

func (s *replyScanner) Write(p []byte) (int, error) {
	if s.found {
		return len(p), s.result(p)
	}
	// The marker may straddle two chunks: search from just before the
	// bytes this chunk adds.
	from := len(s.hdr) - len(resultMarker) + 1
	if from < 0 {
		from = 0
	}
	s.hdr = append(s.hdr, p...)
	i := bytes.Index(s.hdr[from:], resultMarker)
	if i < 0 {
		if len(s.hdr) > maxHeader {
			return 0, errors.New("reply: no result field in the first 64 KiB")
		}
		return len(p), nil
	}
	i += from
	rest := s.hdr[i+len(resultMarker):]
	s.hdr = s.hdr[:i:i]
	s.found = true
	return len(p), s.result(rest)
}

func (s *replyScanner) result(p []byte) error {
	s.ieee.Write(p)
	s.castag.Write(p)
	if s.content != nil {
		if _, err := s.content.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// finish parses the header and returns it with the result checksum.
func (s *replyScanner) finish() (runHeader, uint64, error) {
	var h runHeader
	if !s.found {
		return h, 0, errors.New("reply: no result field")
	}
	head := strings.TrimRight(string(s.hdr), " \t\r\n,") + "}"
	if err := json.Unmarshal([]byte(head), &h); err != nil {
		return h, 0, fmt.Errorf("reply header: %w", err)
	}
	return h, uint64(s.ieee.Sum32())<<32 | uint64(s.castag.Sum32()), nil
}

// exchange is one HTTP round trip as the client saw it.
type exchange struct {
	Status int
	Size   int64
	// Sent is taken as the request is handed to the transport, First at
	// the first reply byte, Last after the last reply byte was read.
	Sent, First, Last time.Time
	// Body holds the reply when no sink consumed it.
	Body []byte
}

// ms is the client-observed latency in milliseconds.
func (e exchange) ms() float64 { return float64(e.Last.Sub(e.Sent).Nanoseconds()) / 1e6 }

// httpClient is one closed-loop client: one keep-alive connection,
// one request at a time.
type httpClient struct {
	base string
	hc   *http.Client
	buf  []byte
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     90 * time.Second,
	}
	return &httpClient{base: base, hc: &http.Client{Transport: tr, Timeout: clientTimeout}, buf: make([]byte, 256<<10)}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and streams a 200 reply into sink; without a
// sink, or on any other status, the body is kept in the exchange.
func (c *httpClient) do(method, path string, body []byte, sink io.Writer) (exchange, error) {
	var ex exchange
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	trace := &httptrace.ClientTrace{GotFirstResponseByte: func() { ex.First = time.Now() }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), method, c.base+path, rd)
	if err != nil {
		return ex, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	ex.Sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		ex.Last = time.Now()
		return ex, err
	}
	defer resp.Body.Close()
	ex.Status = resp.StatusCode
	if sink != nil && resp.StatusCode == http.StatusOK {
		ex.Size, err = io.CopyBuffer(sink, resp.Body, c.buf)
	} else {
		ex.Body, err = io.ReadAll(resp.Body)
		ex.Size = int64(len(ex.Body))
	}
	ex.Last = time.Now()
	if ex.First.IsZero() {
		ex.First = ex.Last
	}
	return ex, err
}

// getJSON fetches a small JSON document into v, outside any timed path.
func (c *httpClient) getJSON(path string, v any) error {
	ex, err := c.do(http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	if ex.Status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, ex.Status, bytes.TrimSpace(ex.Body))
	}
	return json.Unmarshal(ex.Body, v)
}

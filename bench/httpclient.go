package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ringmesh"
	"ringmesh/internal/serve"
)

// server is an in-process ringmeshd: serve.New behind a loopback
// httptest listener, configured as the serving workloads define it.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
	url string
}

// bootServer starts a daemon whose disk cache (and journal, unless
// disabled) live under dir. Booting over a directory a previous
// daemon wrote is a restart.
func bootServer(dir string, journal bool) (*server, error) {
	opt := serve.Options{
		Workers:      2,
		CacheEntries: 32,
		CacheDir:     filepath.Join(dir, "cache"),
		QueueDepth:   256,
	}
	if journal {
		opt.JournalDir = filepath.Join(dir, "journal")
	}
	srv, err := serve.New(opt)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &server{srv: srv, ts: ts, url: ts.URL}, nil
}

// stop closes the listener and drains the worker pool.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // an expired drain cancels the stragglers; nothing more to do
}

// client is one load-generator connection: an http.Client limited to a
// single keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobDoc is the part of the job document the benchmark checks.
type jobDoc struct {
	ID     string           `json:"id"`
	State  string           `json:"state"`
	Cached bool             `json:"cached"`
	Result *ringmesh.Result `json:"result"`
	Points []struct {
		Nodes  int             `json:"nodes"`
		Result ringmesh.Result `json:"result"`
	} `json:"points"`
	PointErrors []json.RawMessage `json:"point_errors"`
	Items       []struct {
		Result *ringmesh.Result `json:"result"`
		Error  json.RawMessage  `json:"error"`
	} `json:"items"`
	Error json.RawMessage `json:"error"`
}

func (d *jobDoc) terminal() bool { return d.State == "done" || d.State == "failed" }

// runBody renders a POST /v1/runs body.
func runBody(cfg ringmesh.Config, opt ringmesh.RunOptions) []byte {
	return mustJSON(map[string]any{"config": cfg, "options": opt})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only static, marshalable request shapes reach here
	}
	return b
}

// awaitJob polls a job document until it is terminal.
func awaitJob(c *client, id string, timeout time.Duration) (*jobDoc, error) {
	deadline := time.Now().Add(timeout)
	for {
		status, data, err := c.do("GET", "/v1/jobs/"+id, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET job %s: status %d", id, status)
		}
		var doc jobDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, err
		}
		if doc.terminal() {
			return &doc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after %s", id, doc.State, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads /metrics and sums every series by metric name (labels
// folded together).
func scrape(c *client) (map[string]float64, error) {
	status, data, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] += v
	}
	return out, nil
}

// serverSpan is one span of a job's lifecycle as the server reports it.
type serverSpan struct {
	Name   string
	Offset time.Duration // from the job's first span
	Dur    time.Duration
}

// jobSpans fetches a job's lifecycle spans from /v1/jobs/{id}/trace.
func jobSpans(c *client, id string) ([]serverSpan, error) {
	status, data, err := c.do("GET", "/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET trace %s: status %d", id, status)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	out := make([]serverSpan, len(doc.TraceEvents))
	for i, e := range doc.TraceEvents {
		out[i] = serverSpan{Name: e.Name,
			Offset: time.Duration(e.TS) * time.Microsecond, Dur: time.Duration(e.Dur) * time.Microsecond}
	}
	return out, nil
}

// freshDir creates an empty scratch directory under parent.
func freshDir(parent, prefix string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, prefix)
}

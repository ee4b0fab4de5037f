package serve

import (
	"bytes"
	"net/http"
	"testing"
)

// TestWorkersFieldDoesNotSplitCache pins the serving-side half of the
// execution-only contract: the same logical run submitted with
// different (client-chosen) workers values is one cache entry, and the
// cached result is byte-identical — the parallel engine cannot be
// observed through the API.
func TestWorkersFieldDoesNotSplitCache(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	cfg := testConfig()
	cfg.Workers = 4 // overridden: a served point runs serial
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: testOptions()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d: %s", resp.StatusCode, raw)
	}
	first := awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)
	if first.Cached {
		t.Fatal("first run reported cached")
	}

	cfg.Workers = 0 // a different spelling of the same run
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: testOptions()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-submission with different workers = %d: %s", resp.StatusCode, raw)
	}
	second := decodeDoc(t, raw)
	if second.State != JobDone || !second.Cached {
		t.Fatalf("re-submission = state %s cached %v; want done, cached", second.State, second.Cached)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result differs across workers values:\n%s\nvs\n%s", first.Result, second.Result)
	}
}

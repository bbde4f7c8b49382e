package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/serve"
	"repro/internal/workload"
)

// harness_test.go is the shared client-side machinery: a test server
// wrapper and a minimal HTTP client with the retry discipline a real
// device SDK would use (retry verbatim on 429 backpressure and 503
// recovery, trusting (device, seq) dedupe for idempotency).

type testServer struct {
	srv  *serve.Server
	http *httptest.Server
}

func newTestServer(t *testing.T, cfg serve.Config) *testServer {
	t.Helper()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return &testServer{srv: srv, http: hs}
}

type client struct {
	t    *testing.T
	base string
	hc   *http.Client
}

func newClient(t *testing.T, ts *testServer) *client {
	return &client{t: t, base: ts.http.URL, hc: ts.http.Client()}
}

func (c *client) do(method, path string, body []byte) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatalf("building %s %s: %v", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("reading %s %s response: %v", method, path, err)
	}
	return resp.StatusCode, data
}

// register posts the advertisers in order, failing the test on anything
// but a 200.
func (c *client) register(advs []dataset.Advertiser) {
	c.t.Helper()
	for _, a := range advs {
		body, _ := json.Marshal(serve.RegistrationFromAdvertiser(a))
		status, resp := c.do(http.MethodPost, "/v1/queries", body)
		if status != http.StatusOK {
			c.t.Fatalf("registering %s: status %d: %s", a.Site, status, resp)
		}
	}
}

// sendBatch posts one batch with the standard retry discipline and
// returns the final terminal status with the accepted/duplicate counts.
// Retryable refusals (429, 503) re-send the identical payload; anything
// else is terminal.
func (c *client) sendBatch(evs []events.Event) (status, accepted, duplicates int) {
	c.t.Helper()
	req := serve.IngestRequest{Events: make([]serve.EventWire, len(evs))}
	for i, ev := range evs {
		req.Events[i] = serve.WireFromEvent(ev)
	}
	body, _ := json.Marshal(req)
	for attempt := 0; attempt < 4000; attempt++ {
		st, resp := c.do(http.MethodPost, "/v1/events", body)
		switch st {
		case http.StatusOK:
			var ir serve.IngestResponse
			if err := json.Unmarshal(resp, &ir); err != nil {
				c.t.Fatalf("parsing ingest response: %v", err)
			}
			return st, ir.Accepted, ir.Duplicates
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			time.Sleep(2 * time.Millisecond)
		default:
			return st, 0, 0
		}
	}
	c.t.Fatalf("batch still refused after 4000 retries")
	return 0, 0, 0
}

// sendOrdered streams events (already (Day, ID)-sorted) in fixed-size
// batches, summing accepted and duplicate counts. A non-retryable status
// stops the stream and returns it with the index of the failed batch's
// first event.
func (c *client) sendOrdered(evs []events.Event, batch int) (accepted, duplicates, failedAt int) {
	c.t.Helper()
	failedAt = -1
	for off := 0; off < len(evs); off += batch {
		end := min(off+batch, len(evs))
		st, acc, dup := c.sendBatch(evs[off:end])
		if st != http.StatusOK {
			return accepted, duplicates, off
		}
		accepted += acc
		duplicates += dup
	}
	return accepted, duplicates, -1
}

// sendOrderedAllowStop is sendOrdered for crash tests: a 503 is not
// retried but reported, so the sender can observe the server dying.
func (c *client) sendOrderedAllowStop(evs []events.Event, batch int) (sentThrough int) {
	c.t.Helper()
	for off := 0; off < len(evs); off += batch {
		end := min(off+batch, len(evs))
		req := serve.IngestRequest{Events: make([]serve.EventWire, len(evs[off:end]))}
		for i, ev := range evs[off:end] {
			req.Events[i] = serve.WireFromEvent(ev)
		}
		body, _ := json.Marshal(req)
		st, _ := c.do(http.MethodPost, "/v1/events", body)
		if st != http.StatusOK {
			return off
		}
	}
	return len(evs)
}

func (c *client) shutdown(final bool) serve.ShutdownResponse {
	c.t.Helper()
	body, _ := json.Marshal(serve.ShutdownRequest{Final: &final})
	status, resp := c.do(http.MethodPost, "/v1/shutdown", body)
	if status != http.StatusOK {
		c.t.Fatalf("shutdown: status %d: %s", status, resp)
	}
	var sr serve.ShutdownResponse
	if err := json.Unmarshal(resp, &sr); err != nil {
		c.t.Fatalf("parsing shutdown response: %v", err)
	}
	return sr
}

func (c *client) results(query string) serve.ResultsResponse {
	c.t.Helper()
	status, resp := c.do(http.MethodGet, "/v1/results"+query, nil)
	if status != http.StatusOK {
		c.t.Fatalf("results: status %d: %s", status, resp)
	}
	var rr serve.ResultsResponse
	if err := json.Unmarshal(resp, &rr); err != nil {
		c.t.Fatalf("parsing results: %v", err)
	}
	return rr
}

// checkResultsCursor holds GET /v1/results to its cursor contract over the
// n results the server has released so far: a result's Index is its
// position, and after=K returns exactly what follows position K — all of
// them from -1, none from the last index or past the end — whether the
// results were released live or restored by a resume.
func (c *client) checkResultsCursor(n int) {
	c.t.Helper()
	all := c.results("").Results
	if len(all) != n {
		c.t.Fatalf("results: %d released, want %d", len(all), n)
	}
	for i, r := range all {
		if r.Index != i {
			c.t.Fatalf("result at position %d has index %d", i, r.Index)
		}
	}
	for _, after := range []int{-1, -7, 0, n / 2, n - 1, n, n + 100, math.MaxInt} {
		got := c.results(fmt.Sprintf("?after=%d", after)).Results
		want := all[min(max(after, -1), n-1)+1:]
		if !slices.Equal(got, want) {
			c.t.Fatalf("results after=%d: %d results, want the %d after that position", after, len(got), len(want))
		}
	}
	if n == 0 {
		return
	}
	querier := all[n-1].Querier
	var want []serve.ResultWire
	for _, r := range all[n/2:] {
		if r.Querier == querier {
			want = append(want, r)
		}
	}
	got := c.results(fmt.Sprintf("?querier=%s&after=%d", querier, n/2-1)).Results
	if !slices.Equal(got, want) {
		c.t.Fatalf("results querier=%s after=%d: %d results, want %d", querier, n/2-1, len(got), len(want))
	}
}

// orderedEvents returns the dataset's events sorted into admission
// ((Day, ID)) order.
func orderedEvents(ds *dataset.Dataset) []events.Event {
	evs := make([]events.Event, len(ds.Events))
	copy(evs, ds.Events)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Before(evs[j]) })
	return evs
}

// scenarioForServing strips a cataloged batch config down to the serving
// shape: no dataset (events arrive over the wire), everything else
// preserved.
func scenarioForServing(cfg workload.Config) workload.Config {
	cfg.Dataset = nil
	return cfg
}

// waitDone fails the test if the served run doesn't finish in time.
func waitDone(t *testing.T, srv *serve.Server) (*workload.Run, error) {
	t.Helper()
	select {
	case <-srv.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("served run did not finish")
	}
	return srv.Run()
}

// mustDigest fails on a nil run.
func mustDigest(t *testing.T, run *workload.Run, err error, label string) string {
	t.Helper()
	if err != nil {
		t.Fatalf("%s failed: %v", label, err)
	}
	if run == nil {
		t.Fatalf("%s: nil run", label)
	}
	return run.CanonicalDigest()
}

// tsShutdown closes out a test server's run with a bounded deadline.
func tsShutdown(ts *testServer) (*workload.Run, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return ts.srv.Shutdown(ctx, true)
}

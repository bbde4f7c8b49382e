package serve_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/serve"
	"repro/internal/workload"
)

// FuzzIngestHTTP is the never-panic guarantee for the network decode →
// validate → ingest path. It drives arbitrary bytes through the three
// request-bearing endpoints by calling the handler directly — net/http's
// server would recover a handler panic and turn it into a dropped
// connection, which is exactly the masking this fuzz target must avoid —
// and asserts every input produces a deliberate HTTP status, never a
// panic reaching the handler boundary.
//
// The server is live: a real stream.Service consumes whatever the fuzzer
// gets admitted, so a panic lurking past validation (negative-ε
// calibration, non-positive Laplace scale, day/epoch arithmetic) fires on
// the service goroutine and crashes the fuzz process outright — goroutine
// panics are unrecoverable, so nothing masks them.
func FuzzIngestHTTP(f *testing.F) {
	meta := dataset.Meta{
		Name: "fuzz", PopulationDevices: 1 << 16, DurationDays: 8,
		Advertisers: []dataset.Advertiser{{
			Site:           events.Intern("shop.example"),
			Products:       []events.Sym{events.Intern("p0"), events.Intern("p1")},
			MaxValue:       50,
			AvgReportValue: 10,
			BatchSize:      8,
		}},
	}
	srv, err := serve.NewServer(serve.Config{
		Scenario: workload.Config{EpsilonG: 1, Seed: 1, Parallelism: 1},
		Meta:     meta,
	})
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()

	for _, seed := range serve.EventsSeeds {
		f.Add(uint8(0), []byte(seed))
	}
	f.Add(uint8(1), []byte(`{"site":"shop.example","products":["p0","p1"],"maxValue":50,"avgReportValue":10,"batchSize":8}`))
	f.Add(uint8(1), []byte(`{"site":"x","products":[""],"maxValue":-0,"avgReportValue":1e999,"batchSize":-5}`))
	f.Add(uint8(2), []byte(`querier=shop.example&after=-1`))
	f.Add(uint8(2), []byte(`after=99999999999999999999`))
	f.Add(uint8(3), []byte(`{"final": false}`))

	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusConflict:              true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusTooManyRequests:       true,
		http.StatusServiceUnavailable:    true,
		http.StatusMethodNotAllowed:      true,
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		var req *http.Request
		switch endpoint % 4 {
		case 0:
			req = httptest.NewRequest(http.MethodPost, "/v1/events", strings.NewReader(string(body)))
		case 1:
			req = httptest.NewRequest(http.MethodPost, "/v1/queries", strings.NewReader(string(body)))
		case 2:
			req = httptest.NewRequest(http.MethodGet, "/v1/results", nil)
			// Assign the raw query directly: URL parsing must not pre-filter
			// the bytes the handler's own query decoding will see.
			req.URL.RawQuery = string(body)
		case 3:
			// Stats/meta take no input but must stay panic-free alongside
			// whatever state the other endpoints drove the server into.
			req = httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if !allowed[rec.Code] {
			t.Fatalf("endpoint %d: unexpected status %d (body %q)", endpoint%4, rec.Code, body)
		}
	})
}

package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// tinyMeta is a minimal serving identity for handler-level tests.
func tinyMeta() dataset.Meta {
	return dataset.Meta{Name: "tiny", PopulationDevices: 64, DurationDays: 4}
}

func tinyAdvertiser() dataset.Advertiser {
	return dataset.Advertiser{
		Site:           events.Intern("shop.example"),
		Products:       []events.Sym{events.Intern("p0")},
		MaxValue:       100,
		AvgReportValue: 20,
		BatchSize:      10,
	}
}

// validEvent is a conversion the tiny server accepts.
func validEvent(id uint64) string {
	return fmt.Sprintf(`{"id":%d,"kind":"conversion","device":%d,"day":0,`+
		`"advertiser":"shop.example","product":"p0","value":5}`, id, id%64)
}

// ingestRows are the refusals TestIngestValidation drives through the API
// and through ReadTrace, each with the status and code the API answers. A
// row with an event is a one-event POST /v1/events body and, under
// tinyTraceHeader, a trace line; a row with a registration is a POST
// /v1/queries body and, after tinyAdvertiser's, a trace header querier; a
// row with a body is a POST /v1/events body alone. FuzzTraceLine starts
// from the events.
var ingestRows = []struct {
	name                      string
	event, registration, body string
	status                    int
	code                      string
}{
	{name: "malformed-json", body: `{"events": [`, status: http.StatusBadRequest, code: serve.CodeMalformedJSON},
	{name: "not-an-object", body: `[]`, status: http.StatusBadRequest, code: serve.CodeMalformedJSON},
	{name: "zero-id", event: `{"id":0,"kind":"conversion","device":1,"day":0,"advertiser":"shop.example","product":"p0","value":1}`,
		status: http.StatusBadRequest, code: serve.CodeBadID},
	{name: "unknown-kind", event: `{"id":1,"kind":"click","device":1,"day":0,"advertiser":"shop.example"}`,
		status: http.StatusBadRequest, code: serve.CodeBadKind},
	{name: "negative-day", event: `{"id":1,"kind":"conversion","device":1,"day":-1,"advertiser":"shop.example","product":"p0","value":1}`,
		status: http.StatusBadRequest, code: serve.CodeBadDay},
	{name: "day-past-duration", event: `{"id":1,"kind":"conversion","device":1,"day":4,"advertiser":"shop.example","product":"p0","value":1}`,
		status: http.StatusBadRequest, code: serve.CodeBadDay},
	{name: "negative-value", event: `{"id":1,"kind":"conversion","device":1,"day":0,"advertiser":"shop.example","product":"p0","value":-3}`,
		status: http.StatusBadRequest, code: serve.CodeBadValue},
	{name: "huge-value", event: `{"id":1,"kind":"conversion","device":1,"day":0,"advertiser":"shop.example","product":"p0","value":1e13}`,
		status: http.StatusBadRequest, code: serve.CodeBadValue},
	{name: "conversion-without-product", event: `{"id":1,"kind":"conversion","device":1,"day":0,"advertiser":"shop.example","value":1}`,
		status: http.StatusBadRequest, code: serve.CodeBadProduct},
	{name: "impression-with-value", event: `{"id":1,"kind":"impression","device":1,"day":0,"advertiser":"shop.example","publisher":"news.example","value":2}`,
		status: http.StatusBadRequest, code: serve.CodeBadValue},
	{name: "empty-advertiser", event: `{"id":1,"kind":"conversion","device":1,"day":0,"advertiser":"","product":"p0","value":1}`,
		status: http.StatusBadRequest, code: serve.CodeBadSite},
	{name: "oversized-site", event: `{"id":1,"kind":"conversion","device":1,"day":0,"advertiser":"` +
		strings.Repeat("a", 300) + `","product":"p0","value":1}`,
		status: http.StatusBadRequest, code: serve.CodeBadSite},
	{name: "oversized-registration-site", registration: `{"site":"` + strings.Repeat("b", 300) +
		`","products":["p"],"maxValue":1,"avgReportValue":1,"batchSize":5}`,
		status: http.StatusBadRequest, code: serve.CodeBadRegistration},
	{name: "no-products", registration: `{"site":"b.example","maxValue":1,"avgReportValue":1,"batchSize":5}`,
		status: http.StatusBadRequest, code: serve.CodeBadRegistration},
	{name: "too-many-products", registration: `{"site":"b.example","products":["p"` + strings.Repeat(`,"p"`, 1024) +
		`],"maxValue":1,"avgReportValue":1,"batchSize":5}`,
		status: http.StatusBadRequest, code: serve.CodeBadRegistration},
	{name: "huge-batch", registration: `{"site":"b.example","products":["p"],"maxValue":1,"avgReportValue":1,"batchSize":1048577}`,
		status: http.StatusBadRequest, code: serve.CodeBadRegistration},
	{name: "huge-max-value", registration: `{"site":"b.example","products":["p"],"maxValue":2e12,"avgReportValue":1,"batchSize":5}`,
		status: http.StatusBadRequest, code: serve.CodeBadRegistration},
	{name: "duplicate-site", registration: `{"site":"shop.example","products":["p0"],"maxValue":100,"avgReportValue":20,"batchSize":99}`,
		status: http.StatusConflict, code: serve.CodeConflict},
}

// tinyTraceHeader is the header line of a trace with tinyMeta's identity,
// whose queriers are tinyAdvertiser and then regs, as registration JSON.
func tinyTraceHeader(regs ...string) string {
	tiny, err := json.Marshal(serve.RegistrationFromAdvertiser(tinyAdvertiser()))
	if err != nil {
		panic(err)
	}
	m := tinyMeta()
	return fmt.Sprintf(`{"name":%q,"populationDevices":%d,"durationDays":%d,"advertisers":[%s]}`+"\n",
		m.Name, m.PopulationDevices, m.DurationDays, strings.Join(append([]string{string(tiny)}, regs...), ","))
}

// TestIngestValidation drives every malformed-input class the network
// audit identified through POST /v1/events and /v1/queries and asserts each
// is refused with the right status and typed error code — never a panic,
// never a silent admission — and that a trace carrying the same event or
// querier is refused with the same code, naming its line. The server here
// has a live service behind it, so an admission slipping through would
// corrupt real state.
func TestIngestValidation(t *testing.T) {
	meta := tinyMeta()
	meta.Advertisers = []dataset.Advertiser{tinyAdvertiser()}
	ts := newTestServer(t, serve.Config{
		Scenario: workload.Config{EpsilonG: 1, Seed: 1, Parallelism: 1},
		Meta:     meta,
	})
	c := newClient(t, ts)

	for _, tc := range ingestRows {
		t.Run(tc.name, func(t *testing.T) {
			// index is the offending event's position; -1 means the error is
			// not about one event and the envelope must carry no "index".
			path, body, index, trace, line := "/v1/events", tc.body, -1, "", 0
			switch {
			case tc.event != "":
				body, index = `{"events":[`+tc.event+`]}`, 0
				trace, line = tinyTraceHeader()+tc.event+"\n", 2
			case tc.registration != "":
				path, body = "/v1/queries", tc.registration
				trace, line = tinyTraceHeader(tc.registration), 1
			}
			status, resp := c.do(http.MethodPost, path, []byte(body))
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, resp)
			}
			var er serve.ErrorResponse
			if err := json.Unmarshal(resp, &er); err != nil {
				t.Fatalf("error body not JSON: %s", resp)
			}
			if er.Code != tc.code {
				t.Fatalf("code %q, want %q (%s)", er.Code, tc.code, er.Error)
			}
			if got := errorIndex(t, resp); got != index {
				t.Fatalf("index %d, want %d (%s)", got, index, resp)
			}
			if trace == "" {
				return
			}
			_, err := serve.ReadTrace(strings.NewReader(trace))
			var rerr *serve.RequestError
			if !errors.As(err, &rerr) || rerr.Code != tc.code {
				t.Fatalf("ReadTrace: %v, want a %q refusal", err, tc.code)
			}
			if want := fmt.Sprintf("trace line %d", line); !strings.Contains(err.Error(), want) {
				t.Fatalf("ReadTrace: %q does not name %s", err, want)
			}
		})
	}

	// An event whose advertiser is not a registered querier is admitted:
	// the planner ignores it, exactly as the batch engine's plan does, so a
	// trace carrying non-querier advertisers (Criteo's shape) is servable.
	t.Run("unknown-advertiser", func(t *testing.T) {
		status, resp := c.do(http.MethodPost, "/v1/events", []byte(
			`{"events":[{"id":1,"kind":"conversion","device":1,"day":0,"advertiser":"rogue.example","product":"p0","value":1}]}`))
		if status != http.StatusOK {
			t.Fatalf("status %d, want 200 (%s)", status, resp)
		}
		var ir serve.IngestResponse
		if err := json.Unmarshal(resp, &ir); err != nil || ir.Accepted != 1 {
			t.Fatalf("accepted %d (err %v), want 1 (%s)", ir.Accepted, err, resp)
		}
	})

	// With no querier registered the first event would seal a run that can
	// measure nothing: refused, and registration stays open.
	t.Run("no-querier-registered", func(t *testing.T) {
		bare := newClient(t, newTestServer(t, serve.Config{
			Scenario: workload.Config{EpsilonG: 1, Seed: 1, Parallelism: 1},
			Meta:     tinyMeta(),
		}))
		body := []byte(`{"events":[` + validEvent(1) + `]}`)
		status, resp := bare.do(http.MethodPost, "/v1/events", body)
		var er serve.ErrorResponse
		_ = json.Unmarshal(resp, &er)
		if status != http.StatusBadRequest || er.Code != serve.CodeBadRegistration {
			t.Fatalf("status %d code %q, want 400 %q (%s)", status, er.Code, serve.CodeBadRegistration, resp)
		}
		reg, _ := json.Marshal(serve.RegistrationFromAdvertiser(tinyAdvertiser()))
		if status, resp := bare.do(http.MethodPost, "/v1/queries", reg); status != http.StatusOK {
			t.Fatalf("registration after the refusal: status %d (%s)", status, resp)
		}
		if status, resp := bare.do(http.MethodPost, "/v1/events", body); status != http.StatusOK {
			t.Fatalf("event after registration: status %d (%s)", status, resp)
		}
	})

	t.Run("too-many-events", func(t *testing.T) {
		var sb strings.Builder
		sb.WriteString(`{"events":[`)
		for i := 0; i <= serve.MaxBatchEvents; i++ {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(validEvent(uint64(i + 1)))
		}
		sb.WriteString(`]}`)
		status, resp := c.do(http.MethodPost, "/v1/events", []byte(sb.String()))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", status)
		}
		var er serve.ErrorResponse
		_ = json.Unmarshal(resp, &er)
		if er.Code != serve.CodeTooManyEvents {
			t.Fatalf("code %q, want %q", er.Code, serve.CodeTooManyEvents)
		}
		if got := errorIndex(t, resp); got != -1 {
			t.Fatalf("a batch-level error carries index %d (%s)", got, resp)
		}
	})

	t.Run("oversized-body", func(t *testing.T) {
		// The padding lives inside the JSON document, so the decoder must
		// read through it and trip the byte cap.
		body := `{"pad":"` + strings.Repeat("a", serve.MaxBodyBytes+1) + `","events":[]}`
		status, _ := c.do(http.MethodPost, "/v1/events", []byte(body))
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", status)
		}
	})

	t.Run("wrong-method", func(t *testing.T) {
		status, _ := c.do(http.MethodGet, "/v1/events", nil)
		if status != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", status)
		}
	})

	// A 400 admits nothing: the valid prefix of a batch with one bad event
	// must not be ingested, so the client can fix and re-send the whole
	// batch without creating duplicates.
	t.Run("atomic-batches", func(t *testing.T) {
		body := `{"events":[` + validEvent(1000) + `,{"id":0,"kind":"conversion","device":1,"day":0,"advertiser":"shop.example","product":"p0","value":1}]}`
		status, resp := c.do(http.MethodPost, "/v1/events", []byte(body))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", status)
		}
		var er serve.ErrorResponse
		_ = json.Unmarshal(resp, &er)
		if got := errorIndex(t, resp); got != 1 {
			t.Fatalf("error index %d, want 1 (%s)", got, resp)
		}
		st, _, _ := c.sendBatch([]events.Event{{
			ID: 1000, Kind: events.KindConversion, Device: 1000 % 64, Day: 0,
			Advertiser: events.Intern("shop.example"), Product: events.Intern("p0"), Value: 5,
		}})
		if st != http.StatusOK {
			t.Fatalf("re-send of valid event: status %d", st)
		}
	})
}

// errorIndex reads the "index" of an error envelope off the wire: the
// event's position, or -1 when the envelope has no such member.
func errorIndex(t *testing.T, resp []byte) int {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(resp, &raw); err != nil {
		t.Fatalf("error body not JSON: %s", resp)
	}
	member, ok := raw["index"]
	if !ok {
		return -1
	}
	var index int
	if err := json.Unmarshal(member, &index); err != nil || index < 0 {
		t.Fatalf("error index %s is not an event position (%s)", member, resp)
	}
	return index
}

// TestRegistrationLifecycle covers the querier registration semantics:
// idempotent re-registration, conflicting re-registration, the seal on
// first event, and parameter validation.
func TestRegistrationLifecycle(t *testing.T) {
	ts := newTestServer(t, serve.Config{
		Scenario: workload.Config{EpsilonG: 1, Seed: 1, Parallelism: 1},
		Meta:     tinyMeta(),
	})
	c := newClient(t, ts)
	adv := tinyAdvertiser()

	body, _ := json.Marshal(serve.RegistrationFromAdvertiser(adv))
	if status, _ := c.do(http.MethodPost, "/v1/queries", body); status != http.StatusOK {
		t.Fatalf("first registration: status %d", status)
	}
	// Same parameters again: idempotent 200 at the same index.
	status, resp := c.do(http.MethodPost, "/v1/queries", body)
	if status != http.StatusOK {
		t.Fatalf("idempotent re-registration: status %d", status)
	}
	var rr serve.RegistrationResponse
	_ = json.Unmarshal(resp, &rr)
	if rr.Index != 0 || rr.Queriers != 1 {
		t.Fatalf("re-registration index %d queriers %d, want 0/1", rr.Index, rr.Queriers)
	}
	// Different parameters: conflict.
	changed := adv
	changed.BatchSize = 99
	body2, _ := json.Marshal(serve.RegistrationFromAdvertiser(changed))
	if status, _ := c.do(http.MethodPost, "/v1/queries", body2); status != http.StatusConflict {
		t.Fatalf("conflicting re-registration: status %d, want 409", status)
	}
	// Invalid parameters: the calibration math divides by batch size and
	// report values, so zero/negative/NaN-adjacent inputs are refused here
	// rather than panicking inside the service.
	for name, reg := range map[string]serve.QueryRegistration{
		"zero-batch":     {Site: "b.example", Products: []string{"p"}, MaxValue: 1, AvgReportValue: 1, BatchSize: 0},
		"negative-max":   {Site: "b.example", Products: []string{"p"}, MaxValue: -1, AvgReportValue: 1, BatchSize: 5},
		"zero-avg":       {Site: "b.example", Products: []string{"p"}, MaxValue: 1, AvgReportValue: 0, BatchSize: 5},
		"empty-site":     {Site: "", Products: []string{"p"}, MaxValue: 1, AvgReportValue: 1, BatchSize: 5},
		"empty-products": {Site: "b.example", MaxValue: 1, AvgReportValue: 1, BatchSize: 5},
	} {
		b, _ := json.Marshal(reg)
		if status, resp := c.do(http.MethodPost, "/v1/queries", b); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", name, status, resp)
		}
	}

	// First event seals the run; new registrations are refused after.
	st, acc, _ := c.sendBatch([]events.Event{{
		ID: 1, Kind: events.KindConversion, Device: 3, Day: 0,
		Advertiser: adv.Site, Product: events.Intern("p0"), Value: 5,
	}})
	if st != http.StatusOK || acc != 1 {
		t.Fatalf("sealing event: status %d accepted %d", st, acc)
	}
	late := serve.QueryRegistration{Site: "late.example", Products: []string{"p"}, MaxValue: 1, AvgReportValue: 1, BatchSize: 5}
	b, _ := json.Marshal(late)
	status, resp = c.do(http.MethodPost, "/v1/queries", b)
	if status != http.StatusConflict {
		t.Fatalf("post-seal registration: status %d, want 409 (%s)", status, resp)
	}
	var er serve.ErrorResponse
	_ = json.Unmarshal(resp, &er)
	if er.Code != serve.CodeSealed {
		t.Fatalf("post-seal code %q, want %q", er.Code, serve.CodeSealed)
	}
	// But idempotent re-registration of the existing querier still works.
	if status, _ := c.do(http.MethodPost, "/v1/queries", body); status != http.StatusOK {
		t.Fatalf("post-seal idempotent re-registration: status %d", status)
	}
	if _, err := tsShutdown(ts); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestBackpressure fills the admission pipeline while the service is
// wedged on its first event and asserts the overflow surfaces as a 429 —
// and that retrying the identical batch after the stall clears admits
// exactly the remainder, duplicating nothing.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	var once atomic.Bool
	scenario := workload.Config{
		EpsilonG: 1, Seed: 1, Parallelism: 1,
		FaultHook: func(p stream.FaultPoint) error {
			if p == stream.PointEventIngested && !once.Load() {
				<-release // wedge the consumer on the first ingested event
			}
			return nil
		},
	}
	meta := tinyMeta()
	meta.PopulationDevices = 4096
	meta.Advertisers = []dataset.Advertiser{tinyAdvertiser()}
	ts := newTestServer(t, serve.Config{Scenario: scenario, Meta: meta, IngestBuffer: 8})
	c := newClient(t, ts)

	// 4096 events > ingest buffer (8) + service queue (1024): with the
	// consumer wedged, this single batch must overflow.
	evs := make([]events.Event, serve.MaxBatchEvents)
	for i := range evs {
		evs[i] = events.Event{
			ID: events.EventID(i + 1), Kind: events.KindConversion,
			Device: events.DeviceID(i), Day: 0,
			Advertiser: events.Intern("shop.example"), Product: events.Intern("p0"), Value: 1,
		}
	}
	req := serve.IngestRequest{Events: make([]serve.EventWire, len(evs))}
	for i, ev := range evs {
		req.Events[i] = serve.WireFromEvent(ev)
	}
	body, _ := json.Marshal(req)
	deadline := time.Now().Add(30 * time.Second)
	var er serve.ErrorResponse
	for {
		status, resp := c.do(http.MethodPost, "/v1/events", body)
		if status == http.StatusTooManyRequests {
			_ = json.Unmarshal(resp, &er)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw a 429 (last status %d)", status)
		}
	}
	if er.Code != serve.CodeBackpressure {
		t.Fatalf("429 code %q, want %q", er.Code, serve.CodeBackpressure)
	}
	if er.Accepted <= 0 || er.Accepted >= len(evs) {
		t.Fatalf("429 accepted %d, want a strict prefix of %d", er.Accepted, len(evs))
	}
	if st := ts.srv.StatsSnapshot(); st.Backpressured == 0 {
		t.Fatalf("backpressure not counted in telemetry")
	}

	// Unwedge and retry the identical batch: the admitted prefix must
	// dedupe and the remainder must land, with the books balancing.
	once.Store(true)
	close(release)
	st, _, _ := c.sendBatch(evs)
	if st != http.StatusOK {
		t.Fatalf("retry after stall: status %d", st)
	}
	stats := ts.srv.StatsSnapshot()
	if stats.EventsAccepted != int64(len(evs)) {
		t.Fatalf("accepted %d events total, want %d", stats.EventsAccepted, len(evs))
	}
	if stats.DuplicatesRejected == 0 {
		t.Fatalf("retry produced no duplicate rejections")
	}
	if _, err := tsShutdown(ts); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

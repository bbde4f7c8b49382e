package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The decoder's fence. referenceDecode is the ingest path as it was before
// the scanner — encoding/json into an IngestRequest, then per-event
// validation — kept here, and only here, as the oracle: checkDecode holds
// the scanner to its status, code, index and events on any body, apart
// from the two documented tightenings, where it holds the scanner to the
// tightened answer instead.

const testDays = 8

// outcome is what a client can tell apart about one decoded body.
type outcome struct {
	status int
	code   string
	index  int
	events []events.Event
}

func (o outcome) String() string {
	if o.status == http.StatusOK {
		return fmt.Sprintf("200 with %d events %+v", len(o.events), o.events[:min(len(o.events), 4)])
	}
	return fmt.Sprintf("%d %s (index %d)", o.status, o.code, o.index)
}

func (o outcome) equal(p outcome) bool {
	return o.status == p.status && o.code == p.code && o.index == p.index &&
		slices.Equal(o.events, p.events)
}

func refused(rerr *RequestError) outcome {
	return outcome{status: http.StatusBadRequest, code: rerr.Code, index: rerr.Index}
}

// referenceEvent is the retired EventWire.decode: validate one wire event
// and convert it, interning its names only once it is valid.
func referenceEvent(w EventWire, durationDays int) (events.Event, *RequestError) {
	ev := events.Event{
		ID:     events.EventID(w.ID),
		Device: events.DeviceID(w.Device),
		Day:    w.Day,
		Value:  w.Value,
	}
	switch w.Kind {
	case events.KindImpression.String():
		ev.Kind = events.KindImpression
	case events.KindConversion.String():
		ev.Kind = events.KindConversion
	default:
		return ev, reqErr(CodeBadKind, "kind %q", w.Kind)
	}
	if w.ID == 0 {
		return ev, reqErr(CodeBadID, "event id must be positive")
	}
	if w.Day < 0 || w.Day >= durationDays {
		return ev, reqErr(CodeBadDay, "day %d outside trace [0, %d)", w.Day, durationDays)
	}
	if w.Advertiser == "" || len(w.Advertiser) > maxSiteLen {
		return ev, reqErr(CodeBadSite, "advertiser")
	}
	if len(w.Publisher) > maxSiteLen || len(w.Campaign) > maxSiteLen {
		return ev, reqErr(CodeBadSite, "publisher/campaign")
	}
	if len(w.Product) > maxSiteLen {
		return ev, reqErr(CodeBadProduct, "product")
	}
	if ev.IsConversion() {
		if w.Product == "" {
			return ev, reqErr(CodeBadProduct, "conversion without a product key")
		}
		if math.IsNaN(w.Value) || math.IsInf(w.Value, 0) || w.Value < 0 || w.Value > maxEventValue {
			return ev, reqErr(CodeBadValue, "conversion value")
		}
	} else if w.Value != 0 {
		return ev, reqErr(CodeBadValue, "impression with a conversion value")
	}
	ev.Publisher, ev.Advertiser = events.Intern(w.Publisher), events.Intern(w.Advertiser)
	ev.Campaign, ev.Product = events.Intern(w.Campaign), events.Intern(w.Product)
	return ev, nil
}

// referenceDecode is the retired decode → validate → convert triple of
// handleEvents, over a body within the size cap.
func referenceDecode(body []byte, durationDays int) outcome {
	var req IngestRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return refused(reqErr(CodeMalformedJSON, "decoding body: %v", err))
	}
	if len(req.Events) > MaxBatchEvents {
		return refused(reqErr(CodeTooManyEvents, "%d events", len(req.Events)))
	}
	decoded := make([]events.Event, len(req.Events))
	for i, ew := range req.Events {
		ev, rerr := referenceEvent(ew, durationDays)
		if rerr != nil {
			rerr.Index = i
			return refused(rerr)
		}
		decoded[i] = ev
	}
	return outcome{status: http.StatusOK, index: -1, events: decoded}
}

// repeatsEvents reports whether the body's first value is an object with
// more than one key that selects the "events" field — the first
// tightening. It walks encoding/json's tokens, not the scanner's.
func repeatsEvents(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return false
		}
		if name, ok := key.(string); ok && strings.EqualFold(name, "events") {
			seen++
		}
		var skipped json.RawMessage
		if dec.Decode(&skipped) != nil {
			return false
		}
	}
	return seen > 1
}

// wantDecode is the specified outcome for a body: the reference's, but 413
// for any body over the cap and malformed-json for a repeated "events".
func wantDecode(body []byte) outcome {
	switch {
	case len(body) > MaxBodyBytes:
		return outcome{status: http.StatusRequestEntityTooLarge, code: CodeBodyTooLarge, index: -1}
	case repeatsEvents(body):
		return outcome{status: http.StatusBadRequest, code: CodeMalformedJSON, index: -1}
	}
	return referenceDecode(body, testDays)
}

// gotDecode runs the body through the scanner's entry point, as
// handleEvents does, admitting every event.
func gotDecode(sc *eventScanner, body []byte) outcome {
	r := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body))
	decoded, status, rerr := sc.readEvents(httptest.NewRecorder(), r, testDays)
	if rerr != nil {
		return outcome{status: status, code: rerr.Code, index: rerr.Index}
	}
	evs := make([]events.Event, len(decoded))
	for i := range decoded {
		evs[i] = sc.withNames(i)
	}
	sc.settle()
	return outcome{status: http.StatusOK, index: -1, events: evs}
}

// checkDecode is the differential check.
func checkDecode(sc *eventScanner, body []byte) error {
	if got, want := gotDecode(sc, body), wantDecode(body); !got.equal(want) {
		return fmt.Errorf("scanner: %v\nreference: %v\nbody: %.300q", got, want, body)
	}
	return nil
}

// canonicalBody is a 512-event body as a client encodes it: serve-bulk's
// request shape.
func canonicalBody() []byte {
	req := IngestRequest{Events: make([]EventWire, 512)}
	for i := range req.Events {
		ev := events.Event{
			ID: events.EventID(i + 1), Device: events.DeviceID(i % 97), Day: i % testDays,
			Advertiser: events.Intern(fmt.Sprintf("shop%d.example", i%5)),
		}
		if i%3 == 0 {
			ev.Kind, ev.Product, ev.Value = events.KindConversion, events.Intern(fmt.Sprintf("p%d", i%7)), float64(i%40)+0.25
		} else {
			ev.Kind, ev.Publisher, ev.Campaign = events.KindImpression, events.Intern("news.example"), events.Intern(fmt.Sprintf("c%d", i%11))
		}
		req.Events[i] = WireFromEvent(ev)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// eventsBody wraps event objects in a request.
func eventsBody(evs ...string) string {
	return `{"events":[` + strings.Join(evs, ",") + `]}`
}

const (
	goodEvent = `{"id":7,"kind":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5}`
	badEvent  = `{"id":0,"kind":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5}`
)

var goodDecoded = events.Event{
	ID: 7, Kind: events.KindConversion, Device: 3, Day: 1,
	Advertiser: events.Intern("shop.example"), Product: events.Intern("p0"), Value: 5,
}

func repeatEvents(n int, first string) string {
	evs := make([]string, n)
	evs[0] = first
	for i := 1; i < n; i++ {
		evs[i] = goodEvent
	}
	return eventsBody(evs...)
}

// quirk is one clause of the decoding contract (DESIGN.md §13 "Decoding").
type quirk struct {
	name string
	body string
	want outcome
}

// quirks returns one row per clause. Built on demand: some bodies are
// megabytes.
func quirks() []quirk {
	return []quirk{
		{"canonical", eventsBody(goodEvent),
			outcome{200, "", -1, []events.Event{goodDecoded}}},
		{"case-folded-keys", `{"EVENTS":[{"ID":7,"Kind":"conversion","DEVICE":3,"dAy":1,"Advertiser":"shop.example","PRODUCT":"p0","Value":5}]}`,
			outcome{200, "", -1, []events.Event{goodDecoded}}},
		{"unicode-folded-keys", "{\"event\u017f\":[{\"id\":7,\"\u212aind\":\"conversion\",\"device\":3,\"day\":1,\"adverti\u017fer\":\"shop.example\",\"product\":\"p0\",\"value\":5}]}",
			outcome{200, "", -1, []events.Event{goodDecoded}}},
		{"escaped-key", `{"\u0065vents":[{"\u0069d":7,"k\u0049nd":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5}]}`,
			outcome{200, "", -1, []events.Event{goodDecoded}}},
		{"duplicate-field-last-wins", `{"events":[{"id":9,"id":7,"kind":"click","kind":"conversion","device":3,"day":1,"advertiser":"x","advertiser":"shop.example","product":"p0","value":1,"value":5}]}`,
			outcome{200, "", -1, []events.Event{goodDecoded}}},
		{"duplicate-field-last-wins-invalid", `{"events":[{"id":7,"id":0,"kind":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5}]}`,
			outcome{400, CodeBadID, 0, nil}},
		{"unknown-keys-skipped", `{"v":2,"meta":{"a":[1,{"b":null}],"c":"é"},"events":[{"x":[[]],"id":7,"kind":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5,"y":{"events":[1]}}],"z":-0.5e+3}`,
			outcome{200, "", -1, []events.Event{goodDecoded}}},
		{"unknown-key-syntax-checked", `{"meta":{"a":[1,]},"events":[]}`,
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"unknown-key-bad-escape", `{"meta":"\x","events":[]}`,
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"depth-at-limit", `{"deep":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"events":[]}`,
			outcome{200, "", -1, []events.Event{}}},
		{"depth-bomb", `{"deep":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"events":[]}`,
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"depth-bomb-in-event", `{"events":[{"deep":` + strings.Repeat(`{"a":`, 9998) + `1` + strings.Repeat("}", 9998) + `}]}`,
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"null-field-is-no-op", `{"events":[{"id":7,"id":null,"kind":"conversion","kind":null,"device":3,"day":1,"day":null,"advertiser":"shop.example","advertiser":null,"product":"p0","value":5,"value":null,"publisher":null}]}`,
			outcome{200, "", -1, []events.Event{goodDecoded}}},
		{"null-element-is-zero-event", eventsBody(goodEvent, `null`),
			outcome{400, CodeBadKind, 1, nil}},
		{"null-events", `{"events":null}`,
			outcome{200, "", -1, []events.Event{}}},
		{"null-body", `null`,
			outcome{200, "", -1, []events.Event{}}},
		{"empty-object", `{}`,
			outcome{200, "", -1, []events.Event{}}},
		{"empty-body", ``,
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"events-not-an-array", `{"events":{}}`,
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"element-not-an-object", `{"events":[7]}`,
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"unicode-escapes", `{"events":[{"id":7,"kind":"conversion","device":3,"day":1,"advertiser":"sh\u00f6p\ud83d\ude00.example","product":"p\n\/\"\u0030","value":5}]}`,
			outcome{200, "", -1, []events.Event{{ID: 7, Kind: events.KindConversion, Device: 3, Day: 1,
				Advertiser: events.Intern("shöp😀.example"), Product: events.Intern("p\n/\"0"), Value: 5}}}},
		{"lone-surrogates", `{"events":[{"id":7,"kind":"conversion","device":3,"day":1,"advertiser":"a\ud83db\ude00\ud83dA","product":"p0","value":5}]}`,
			outcome{200, "", -1, []events.Event{{ID: 7, Kind: events.KindConversion, Device: 3, Day: 1,
				Advertiser: events.Intern("a\ufffdb\ufffd\ufffdA"), Product: events.Intern("p0"), Value: 5}}}},
		{"invalid-utf8-replaced", "{\"events\":[{\"id\":7,\"kind\":\"conversion\",\"device\":3,\"day\":1,\"advertiser\":\"a\xffb\xc3\",\"product\":\"p0\",\"value\":5}]}",
			outcome{200, "", -1, []events.Event{{ID: 7, Kind: events.KindConversion, Device: 3, Day: 1,
				Advertiser: events.Intern("a\ufffdb\ufffd"), Product: events.Intern("p0"), Value: 5}}}},
		{"length-is-of-the-decoded-string", `{"events":[{"id":7,"kind":"conversion","device":3,"day":1,"advertiser":"` + strings.Repeat(`a`, 257) + `","product":"p0","value":5}]}`,
			outcome{400, CodeBadSite, 0, nil}},
		{"fraction-into-integer", eventsBody(`{"id":1.0,"kind":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5}`),
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"negative-into-unsigned", eventsBody(`{"id":-1,"kind":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5}`),
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"string-into-integer", eventsBody(`{"id":"7","kind":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5}`),
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"exponent-into-integer", eventsBody(`{"id":7,"kind":"conversion","device":3,"day":1e2,"advertiser":"shop.example","product":"p0","value":5}`),
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"integer-overflow", eventsBody(`{"id":18446744073709551616,"kind":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5}`),
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"day-overflow", eventsBody(`{"id":7,"kind":"conversion","device":3,"day":9223372036854775808,"advertiser":"shop.example","product":"p0","value":5}`),
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"most-negative-day", eventsBody(`{"id":7,"kind":"conversion","device":3,"day":-9223372036854775808,"advertiser":"shop.example","product":"p0","value":5}`),
			outcome{400, CodeBadDay, 0, nil}},
		{"float-overflow", eventsBody(`{"id":7,"kind":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":1e999}`),
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"number-into-string", eventsBody(`{"id":7,"kind":1,"device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5}`),
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"leading-zero", eventsBody(`{"id":07,"kind":"conversion","device":3,"day":1,"advertiser":"shop.example","product":"p0","value":5}`),
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"trailing-bytes-ignored", " \n" + eventsBody(goodEvent) + `}]garbage`,
			outcome{200, "", -1, []events.Event{goodDecoded}}},
		{"trailing-bytes-after-null", `null,`,
			outcome{200, "", -1, []events.Event{}}},
		{"lowest-invalid-index", eventsBody(goodEvent, badEvent, `{"kind":"click"}`),
			outcome{400, CodeBadID, 1, nil}},
		{"invalid-event-zero", eventsBody(badEvent, goodEvent),
			outcome{400, CodeBadID, 0, nil}},
		{"too-many-events-outranks-invalid-event-zero", repeatEvents(MaxBatchEvents+1, badEvent),
			outcome{400, CodeTooManyEvents, -1, nil}},
		{"exactly-the-cap", repeatEvents(MaxBatchEvents, goodEvent),
			outcome{200, "", -1, slices.Repeat([]events.Event{goodDecoded}, MaxBatchEvents)}},
		{"syntax-error-outranks-invalid-event-zero", `{"events":[` + badEvent + strings.Repeat(","+goodEvent, 4) + `,{"id":}]}`,
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"type-error-outranks-too-many-events", `{"events":[` + strings.Repeat(goodEvent+",", MaxBatchEvents+1) + `{"id":"x"}]}`,
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"truncated", `{"events":[` + goodEvent,
			outcome{400, CodeMalformedJSON, -1, nil}},
		// The two tightenings.
		{"repeated-events-key", `{"events":[` + goodEvent + `],"Events":[]}`,
			outcome{400, CodeMalformedJSON, -1, nil}},
		{"oversized-body-whose-value-ends-early", eventsBody(goodEvent) + strings.Repeat(" ", MaxBodyBytes),
			outcome{413, CodeBodyTooLarge, -1, nil}},
	}
}

// TestDecodeQuirks pins the decoding contract row by row, and holds every
// row to the reference as well.
func TestDecodeQuirks(t *testing.T) {
	sc := newScanner()
	for _, tc := range quirks() {
		t.Run(tc.name, func(t *testing.T) {
			if got := gotDecode(sc, []byte(tc.body)); !got.equal(tc.want) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
			if err := checkDecode(sc, []byte(tc.body)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDecodeTighteningsAreTightenings shows the reference answering the two
// tightened rows differently, so the rows pin a decision and not an accident.
func TestDecodeTighteningsAreTightenings(t *testing.T) {
	merged := referenceDecode([]byte(`{"events":[`+goodEvent+`],"Events":[]}`), testDays)
	if merged.status != http.StatusOK {
		t.Errorf("reference on a repeated events key: %v, want a 200", merged)
	}
	early := referenceDecode([]byte(eventsBody(goodEvent)+strings.Repeat(" ", MaxBodyBytes)), testDays)
	if early.status != http.StatusOK {
		t.Errorf("reference on an oversized body whose value ends early: %v, want a 200", early)
	}
}

// TestDecodeOracleCatchesMutants plants decoder bugs one at a time and
// requires the differential check to fail on each over the quirk and seed
// bodies: an oracle that passes a mutant is broken (and so is the corpus).
func TestDecodeOracleCatchesMutants(t *testing.T) {
	corpus := append([]string{string(canonicalBody())}, EventsSeeds...)
	for _, tc := range quirks() {
		corpus = append(corpus, tc.body)
	}
	caught := func(m mutation) (n int) {
		sc := newScanner()
		sc.mutant = m
		for _, body := range corpus {
			if checkDecode(sc, []byte(body)) != nil {
				n++
			}
		}
		return n
	}
	if n := caught(mutantNone); n != 0 {
		t.Fatalf("the unmutated scanner fails the check on %d bodies", n)
	}
	for name, m := range map[string]mutation{
		"exact-case-keys-only": mutantExactKeys,
		"escapes-passed-raw":   mutantRawEscapes,
		"first-error-wins":     mutantFirstErrorWins,
		"null-zeroes-a-field":  mutantNullZeroes,
	} {
		if n := caught(m); n == 0 {
			t.Errorf("mutant %s passes the differential check", name)
		} else {
			t.Logf("mutant %s: caught on %d of %d bodies", name, n, len(corpus))
		}
	}
}

// TestDecodeInterningIsBounded floods one scanner with distinct keys: the
// name cache stops at its bound and the events still decode.
func TestDecodeInterningIsBounded(t *testing.T) {
	sc := newScanner()
	for batch := 0; batch < 4; batch++ {
		evs := make([]string, 2048)
		for i := range evs {
			evs[i] = fmt.Sprintf(`{"id":%d,"kind":"conversion","device":3,"day":1,"advertiser":"a%d.example","product":"p%d","value":5}`,
				i+1, batch*len(evs)+i, batch*len(evs)+i)
		}
		if err := checkDecode(sc, []byte(eventsBody(evs...))); err != nil {
			t.Fatal(err)
		}
	}
	if len(sc.cache) != maxInterned || len(sc.names) != maxInterned+1 {
		t.Fatalf("name cache holds %d entries (%d names) after 16384 distinct keys, want %d",
			len(sc.cache), len(sc.names), maxInterned)
	}
}

// TestDecodeRefusedBodyInternsNothing holds a refused body to leaving no
// names behind: the process's symbol table is never freed, so a 400 must
// not grow it, and the scanner's cache — which holds only names withNames
// interned — must come out as it went in.
func TestDecodeRefusedBodyInternsNothing(t *testing.T) {
	fresh := func(tag string) string {
		return fmt.Sprintf(`{"id":1,"kind":"conversion","device":3,"day":1,"advertiser":"%s.example","product":"%s-p","value":5}`, tag, tag)
	}
	rows := []struct{ name, body string }{
		{"invalid-event", eventsBody(fresh("invalid-event"), badEvent)},
		{"malformed-json", `{"events":[` + fresh("malformed-json") + `,{"id":}]}`},
		{"too-many-events", repeatEvents(MaxBatchEvents+1, fresh("too-many-events"))},
		{"over-long-name", eventsBody(fresh("over-long-name"), strings.Replace(goodEvent, "shop.example", strings.Repeat("k", maxSiteLen+1), 1))},
	}
	sc := newScanner()
	if err := checkDecode(sc, canonicalBody()); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cached, names := len(sc.cache), len(sc.names)
			if evs, rerr := sc.scan([]byte(row.body), testDays); rerr == nil {
				t.Fatalf("accepted %d events", len(evs))
			}
			if len(sc.cache) != cached || len(sc.names) != names || sc.fresh != names {
				t.Fatalf("refused body left the cache at %d entries (%d names, %d fresh), was %d",
					len(sc.cache), len(sc.names), sc.fresh, cached)
			}
			for name := range sc.cache {
				if strings.Contains(name, row.name) {
					t.Fatalf("refused body's name %q is cached", name)
				}
			}
		})
	}
	if err := checkDecode(sc, []byte(eventsBody(fresh("invalid-event")))); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeUnadmittedEventsInternNothing holds a decoded body to interning
// only the names of the events the handler admits, as handleEvents does:
// withNames for each queued event, then settle. A body refused after
// decoding (no querier, shedding, a stopped service) or made only of
// duplicates admits none; a backpressured one admits a prefix.
func TestDecodeUnadmittedEventsInternNothing(t *testing.T) {
	rows := []struct {
		name   string
		admit  int
		events int
	}{
		{"none-admitted", 0, 3},
		{"backpressured", 2, 5},
		{"all-admitted", 3, 3},
	}
	sc := newScanner()
	if err := checkDecode(sc, canonicalBody()); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tag := func(i int) string { return fmt.Sprintf("%s-%d", row.name, i) }
			evs := make([]string, row.events)
			for i := range evs {
				evs[i] = fmt.Sprintf(`{"id":%d,"kind":"conversion","device":3,"day":1,"advertiser":"%s.example","product":"%s-p","value":5}`,
					i+1, tag(i), tag(i))
			}
			cached := len(sc.cache)
			if _, rerr := sc.scan([]byte(eventsBody(evs...)), testDays); rerr != nil {
				t.Fatal(rerr)
			}
			for i := range row.admit {
				ev := sc.withNames(i)
				if ev.Advertiser.String() != tag(i)+".example" || ev.Product.String() != tag(i)+"-p" {
					t.Fatalf("event %d named %s/%s", i, ev.Advertiser, ev.Product)
				}
			}
			sc.settle()
			if want := cached + 2*row.admit; len(sc.cache) != want || len(sc.names) != want+1 || sc.fresh != want+1 {
				t.Fatalf("cache holds %d entries (%d names, %d fresh), want %d", len(sc.cache), len(sc.names), sc.fresh, want)
			}
			for name, i := range sc.cache {
				if n := sc.names[i]; n.name != name || n.sym.String() != name {
					t.Fatalf("cache maps %q to names[%d] = %q (symbol %q)", name, i, n.name, n.sym)
				}
			}
			for i := row.admit; i < row.events; i++ {
				for _, name := range []string{tag(i) + ".example", tag(i) + "-p"} {
					if _, ok := sc.cache[name]; ok {
						t.Fatalf("unadmitted event %d's name %q is cached", i, name)
					}
				}
			}
		})
	}
}

// TestDecodeAllocs holds decoding to a constant number of allocations per
// request, however many events the body carries.
func TestDecodeAllocs(t *testing.T) {
	body := canonicalBody()
	sc := newScanner()
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/events", nil)
	r.ContentLength = int64(len(body))
	w := httptest.NewRecorder()
	decode := func() {
		rd.Reset(body)
		r.Body = readerBody{rd}
		evs, _, rerr := sc.readEvents(w, r, testDays)
		if rerr != nil || len(evs) != 512 {
			t.Fatalf("canonical body: %d events, error %v", len(evs), rerr)
		}
		for i := range evs {
			evs[i] = sc.withNames(i)
		}
		sc.settle()
	}
	decode() // warm-up: buffers grown, strings interned
	if allocs := testing.AllocsPerRun(20, decode); allocs > 8 {
		t.Fatalf("%.0f allocations per 512-event request, want at most 8", allocs)
	}
}

type readerBody struct{ *bytes.Reader }

func (readerBody) Close() error { return nil }

// nearMissSeeds are bodies whose keys come close to the exact wire keys
// eventKey matches in place — a longer or shorter name, a space before the
// colon, another case, an escape — or repeat one, and bodies whose names
// change from event to event, as the per-field name memo must follow.
var nearMissSeeds = []string{
	eventsBody(strings.Replace(goodEvent, `"id":`, `"ids":`, 1)),
	eventsBody(strings.Replace(goodEvent, `"id":`, `"id" :`, 1)),
	eventsBody(strings.Replace(goodEvent, `"id":`, `"Id":`, 1)),
	eventsBody(strings.Replace(goodEvent, `"id":`, `"\u0069d":`, 1)),
	eventsBody(strings.Replace(goodEvent, `"device":3`, `"de":3,"device":3`, 1)),
	eventsBody(strings.Replace(goodEvent, `"day":1`, `"dayx":1,"day":1`, 1)),
	eventsBody(strings.Replace(goodEvent, `"day":1`, `"day":9,"day":1`, 1)),
	eventsBody(strings.Replace(goodEvent, `"product":"p0"`, `"product":"p0","product":"p1"`, 1)),
	eventsBody(goodEvent,
		strings.Replace(goodEvent, "shop.example", "other.example", 1),
		goodEvent,
		strings.Replace(goodEvent, `"product":"p0"`, `"product":"p9"`, 1),
		strings.Replace(goodEvent, `"product":"p0"`, `"product":"p\u0030"`, 1)),
	`{"events":[{"d`,
}

// FuzzIngestDecode is the differential fuzz target: any body, scanner
// against reference.
func FuzzIngestDecode(f *testing.F) {
	for _, seed := range EventsSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range nearMissSeeds {
		f.Add([]byte(seed))
	}
	f.Add(canonicalBody())
	sc := newScanner()
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := checkDecode(sc, body); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPlainWordExhaustive holds the eight-byte scan to the byte table. Every
// byte value at each position of a word otherwise made of one plain byte —
// the smallest and largest plain bytes and the neighbours of the quote and
// the backslash among them — ends the word's plain prefix there exactly when
// it is not plain alone; and behind a byte that is not plain, no byte value
// at any later position moves the end.
func TestPlainWordExhaustive(t *testing.T) {
	for _, fill := range []byte{' ', '!', '#', '[', ']', 'a', '~', 0x7f} {
		word := binary.LittleEndian.Uint64(bytes.Repeat([]byte{fill}, 8))
		set := func(w uint64, pos, c int) uint64 { return w&^(0xff<<(8*pos)) | uint64(c)<<(8*pos) }
		for pos := range 8 {
			for c := range 256 {
				w := set(word, pos, c)
				want := 8
				if !plainStringByte[c] {
					want = pos
				}
				if got := plainPrefix(w); got != want {
					t.Fatalf("word %#016x: plain prefix %d, want %d", w, got, want)
				}
				if plainStringByte[c] {
					continue
				}
				for later := pos + 1; later < 8; later++ {
					for c2 := range 256 {
						if w2 := set(w, later, c2); plainPrefix(w2) != pos {
							t.Fatalf("word %#016x: plain prefix %d, want %d", w2, plainPrefix(w2), pos)
						}
					}
				}
			}
		}
	}
}

// TestStrMatchesByteLoop puts one special byte (or sequence) at every offset
// 0–17 of an otherwise plain string, so that it falls in the first, second
// or third word or in the byte-at-a-time tail, with the string ending at
// the end of the data or before more bytes, and holds str to encoding/json,
// which reads strings a byte at a time: the same value, the same refusal,
// and the string ending at the same offset.
func TestStrMatchesByteLoop(t *testing.T) {
	specials := []string{`"`, `\`, `\n`, `\u00e9`, `\ud83d\ude00`, `\x`, "\x00", "\x1f", " ", "~", "\x7f",
		"\x80", "\xbf", "\xc3", "\xff", "é", "😀"}
	plain := "abcdefghijklmnopqrstuvwxyz"
	sc := newScanner()
	for _, special := range specials {
		for k := 0; k <= 17; k++ {
			for _, tail := range []int{0, 1, 9} {
				for _, after := range []string{"", `,"x":1}`} {
					data := []byte(`"` + plain[:k] + special + plain[:tail] + `"` + after)
					dec := json.NewDecoder(bytes.NewReader(data))
					var want string
					err := dec.Decode(&want)
					sc.data, sc.pos = data, 0
					got, ok := sc.str()
					switch {
					case ok != (err == nil):
						t.Fatalf("%q: str ok = %v, encoding/json: %v", data, ok, err)
					case ok && (string(got) != want || int64(sc.pos) != dec.InputOffset()):
						t.Fatalf("%q: str = %q ending at %d, encoding/json %q ending at %d",
							data, got, sc.pos, want, dec.InputOffset())
					}
				}
			}
		}
	}
}

// BenchmarkScanBodies times the decoder alone — scan, withNames for every
// event, settle — over the synthetic trace cut into 512-event bodies as a
// client encodes them: serve-bulk's request shape. It reports ns/event.
func BenchmarkScanBodies(b *testing.B) {
	src, err := dataset.NewSynthetic(dataset.DefaultSyntheticConfig())
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.Materialize(src)
	var bodies [][]byte
	for evs := ds.Events; len(evs) > 0; {
		chunk := evs[:min(512, len(evs))]
		evs = evs[len(chunk):]
		req := IngestRequest{Events: make([]EventWire, len(chunk))}
		for i, ev := range chunk {
			req.Events[i] = WireFromEvent(ev)
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	sc := newScanner()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, body := range bodies {
			evs, rerr := sc.scan(body, ds.DurationDays)
			if rerr != nil {
				b.Fatal(rerr)
			}
			for i := range evs {
				sc.withNames(i)
			}
			sc.settle()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ds.Events)), "ns/event")
}

// TestBackpressuredEventInternsNothing is the backpressured row of
// TestDecodeUnadmittedEventsInternNothing through the handler itself: a
// body of events with a fresh publisher each overflows a wedged queue, as in
// TestBackpressure, and the scanner the handler decoded it with then caches
// the names of the admitted prefix and of no event behind it — not even the
// one that found the queue full.
func TestBackpressuredEventInternsNothing(t *testing.T) {
	release := make(chan struct{})
	var wedged sync.Once
	meta := dataset.Meta{Name: "tiny", PopulationDevices: 64, DurationDays: 4}
	adv := dataset.Advertiser{Site: events.Intern("shop.example"), Products: []events.Sym{events.Intern("p0")},
		MaxValue: 100, AvgReportValue: 20, BatchSize: 10}
	srv, err := NewServer(Config{Meta: meta, IngestBuffer: 8, Scenario: workload.Config{
		EpsilonG: 1, Seed: 1, Parallelism: 1,
		FaultHook: func(p stream.FaultPoint) error {
			if p == stream.PointEventIngested {
				wedged.Do(func() { <-release }) // wedge the consumer on the first ingested event
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := json.Marshal(RegistrationFromAdvertiser(adv))
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/queries", bytes.NewReader(reg)))
	if w.Code != http.StatusOK && w.Code != http.StatusCreated {
		t.Fatalf("registering: %d %s", w.Code, w.Body)
	}
	defer func() {
		close(release)
		if _, err := srv.Shutdown(context.Background(), true); err != nil {
			t.Error(err)
		}
	}()

	const n = 64 // ≫ the queue's 8 slots and the one event the wedged service holds
	publisher := func(i int) string { return fmt.Sprintf("backpressured-%d.example", i) }
	evs := make([]string, n)
	for i := range evs {
		evs[i] = fmt.Sprintf(`{"id":%d,"kind":"conversion","device":%d,"day":0,"publisher":"%s","advertiser":"shop.example","product":"p0","value":5}`,
			i+1, i, publisher(i))
	}
	sc := newScanner()
	w = httptest.NewRecorder()
	srv.admitEvents(w, httptest.NewRequest(http.MethodPost, "/v1/events", strings.NewReader(eventsBody(evs...))), sc)
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusTooManyRequests || er.Code != CodeBackpressure {
		t.Fatalf("overflowing body answered %d %s", w.Code, w.Body)
	}
	if er.Accepted <= 0 || er.Accepted >= n {
		t.Fatalf("429 accepted %d, want a strict prefix of %d", er.Accepted, n)
	}
	for i := range n {
		if _, cached := sc.cache[publisher(i)]; cached != (i < er.Accepted) {
			t.Errorf("event %d (admitted: %v): its publisher cached = %v", i, i < er.Accepted, cached)
		}
	}
}

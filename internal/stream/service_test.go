package stream

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/events"
)

// fakeSource yields a fixed event slice with fixed metadata.
type fakeSource struct {
	meta dataset.Meta
	evs  []events.Event
	next int
}

func (f *fakeSource) Meta() dataset.Meta { return f.meta }
func (f *fakeSource) Next() (events.Event, bool) {
	if f.next >= len(f.evs) {
		return events.Event{}, false
	}
	ev := f.evs[f.next]
	f.next++
	return ev, true
}

func testMeta() dataset.Meta {
	return dataset.Meta{
		Name:              "fake",
		PopulationDevices: 10,
		DurationDays:      30,
		Advertisers: []dataset.Advertiser{{
			Site:           "nike.example",
			Products:       []string{"product-0"},
			MaxValue:       10,
			AvgReportValue: 1,
			BatchSize:      2,
		}},
	}
}

func conv(id events.EventID, dev events.DeviceID, day int) events.Event {
	return events.Event{
		ID: id, Kind: events.KindConversion, Device: dev, Day: day,
		Advertiser: "nike.example", Product: "product-0", Value: 1,
	}
}

func TestServeEmptySource(t *testing.T) {
	svc, err := New(Config{Source: &fakeSource{meta: testMeta()}})
	if err != nil {
		t.Fatal(err)
	}
	run, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 0 || run.EventsIngested != 0 {
		t.Fatalf("empty source produced %+v", run)
	}
}

// goroutineID reads the calling goroutine's number off its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	fields := bytes.Fields(buf[:runtime.Stack(buf, false)])
	return string(fields[1]) // "goroutine N [running]:"
}

// pulledSource is a source that checks, every time the service pulls from
// it, how it is being pulled: on the goroutine that called Serve, with no
// goroutine started since, and only once every event handed out before has
// reached its admission decision.
type pulledSource struct {
	fakeSource
	t          *testing.T
	caller     string
	goroutines int
	decided    int // admissions and drops the AdmitObserver has seen
}

func (p *pulledSource) Next() (events.Event, bool) {
	// Errorf, once: a failing service calls this off the test's goroutine.
	switch id, n := goroutineID(), runtime.NumGoroutine(); {
	case p.t.Failed():
	case id != p.caller:
		p.t.Errorf("Next called on goroutine %s, Serve on %s", id, p.caller)
	case n != p.goroutines:
		p.t.Errorf("%d goroutines while serving, %d before Serve", n, p.goroutines)
	case p.next != p.decided:
		p.t.Errorf("pull %d with only %d events decided: %d buffered between the source and the day clock",
			p.next, p.decided, p.next-p.decided)
	}
	return p.fakeSource.Next()
}

// TestServePullsItsSource is the bounded-memory claim in the form it has
// without an ingest queue: nothing sits between the source and the day
// clock. The service pulls an event only after the previous one was admitted
// or dropped, on the goroutine that called Serve, and a non-durable Serve
// starts no goroutine (Parallelism 1 keeps the generate stage's fan-out,
// the only other goroutines a service has, inline).
func TestServePullsItsSource(t *testing.T) {
	meta, evs := hostileTrace(t, 11)
	src := &pulledSource{fakeSource: fakeSource{meta: meta, evs: evs}, t: t}
	dropped := 0
	svc, err := New(Config{Source: src, EpsilonG: 2, Seed: 5, LatePolicy: LateDrop, Parallelism: 1,
		AdmitObserver: func(_ events.Event, drop bool) {
			src.decided++
			if drop {
				dropped++
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	src.caller, src.goroutines = goroutineID(), runtime.NumGoroutine()
	run, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != src.goroutines {
		t.Fatalf("%d goroutines after Serve, %d before", n, src.goroutines)
	}
	if src.decided != len(evs) || run.EventsIngested != len(evs) || dropped == 0 || dropped != run.EventsDropped || len(run.Results) == 0 {
		t.Fatalf("run exercises too little: %d of %d events decided, %d ingested, %d/%d dropped, %d results",
			src.decided, len(evs), run.EventsIngested, dropped, run.EventsDropped, len(run.Results))
	}
}

func TestServeRejectsOutOfOrderSource(t *testing.T) {
	src := &fakeSource{meta: testMeta(), evs: []events.Event{
		conv(1, 1, 5), conv(2, 2, 3),
	}}
	svc, err := New(Config{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Serve(); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("out-of-order source gave err = %v", err)
	}
}

func TestServeFiresBatchesOnFillDay(t *testing.T) {
	// Batch size 2: conversions on days 1, 4 fill a batch on day 4; the
	// next two on days 4, 9 fill on day 9; a trailing odd conversion
	// never fires.
	src := &fakeSource{meta: testMeta(), evs: []events.Event{
		conv(1, 1, 1), conv(2, 2, 4), conv(3, 3, 4), conv(4, 4, 9), conv(5, 5, 11),
	}}
	svc, err := New(Config{Source: src, FixedEpsilon: 1, EpsilonG: 100})
	if err != nil {
		t.Fatal(err)
	}
	run, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d queries, want 2", len(run.Results))
	}
	if run.Results[0].FireDay != 4 || run.Results[1].FireDay != 9 {
		t.Fatalf("fire days = %d, %d; want 4, 9",
			run.Results[0].FireDay, run.Results[1].FireDay)
	}
	if run.Results[0].Index != 0 || run.Results[1].Index != 1 {
		t.Fatalf("indices = %d, %d", run.Results[0].Index, run.Results[1].Index)
	}
	if run.EventsIngested != 5 {
		t.Fatalf("ingested %d events, want 5", run.EventsIngested)
	}
}

func TestPlannerCapDropsPendingAndHorizonAdvances(t *testing.T) {
	// With MaxQueriesPerProduct = 1 the stream caps after its first
	// batch; later conversions must not accumulate or pin retention.
	src := &fakeSource{meta: testMeta(), evs: []events.Event{
		conv(1, 1, 0), conv(2, 2, 0), conv(3, 3, 1), conv(4, 4, 25),
		{ID: 5, Kind: events.KindImpression, Device: 1, Day: 29,
			Publisher: "pub.example", Advertiser: "nike.example", Campaign: "product-0"},
	}}
	svc, err := New(Config{Source: src, FixedEpsilon: 1, EpsilonG: 100,
		MaxQueriesPerProduct: 1, WindowDays: 7, EpochDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	run, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 1 {
		t.Fatalf("got %d queries, want 1", len(run.Results))
	}
	// By day 29 every epoch but the current one is out of window reach;
	// with no pending conversions left, the day-0 records must be gone.
	if run.EvictedRecords == 0 {
		t.Fatal("capped stream pinned the retention horizon: nothing evicted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := New(Config{Source: &fakeSource{meta: testMeta()}, Parallelism: -1}); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	if _, err := New(Config{Source: &fakeSource{meta: testMeta()}, FixedEpsilon: -1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	// An advertiser outside the calibration domain is refused up front, not
	// left to panic in calibration or, under FixedEpsilon, to run queries of
	// one report.
	for name, mutate := range map[string]func(*dataset.Advertiser){
		"zero batch":        func(a *dataset.Advertiser) { a.BatchSize = 0 },
		"NaN max value":     func(a *dataset.Advertiser) { a.MaxValue = math.NaN() },
		"zero report value": func(a *dataset.Advertiser) { a.AvgReportValue = 0 },
	} {
		meta := testMeta()
		mutate(&meta.Advertisers[0])
		for _, fixed := range []float64{0, 1} {
			src := &fakeSource{meta: meta, evs: []events.Event{conv(1, 1, 1), conv(2, 2, 1)}}
			if _, err := New(Config{Source: src, FixedEpsilon: fixed}); err == nil {
				t.Errorf("%s, fixed ε %v: advertiser accepted", name, fixed)
			}
		}
	}
}

package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/figures"
	"repro/internal/serve"
)

// TestTraceRoundTrip writes a cataloged workload as a trace file and
// reads it back: metadata, querier parameters and the (Day, ID)-ordered
// event sequence must survive exactly, because the serving stack treats
// the trace as the ground truth for loopback equivalence.
func TestTraceRoundTrip(t *testing.T) {
	w, err := figures.ByName("cookie-monster")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w.Config()
	if err != nil {
		t.Fatal(err)
	}
	ds := cfg.Dataset

	path := filepath.Join(t.TempDir(), "micro.trace")
	if err := serve.WriteTraceFile(path, ds.Stream()); err != nil {
		t.Fatalf("WriteTraceFile: %v", err)
	}
	got, err := serve.OpenTrace(path)
	if err != nil {
		t.Fatalf("OpenTrace: %v", err)
	}

	if got.Name != ds.Name || got.PopulationDevices != ds.PopulationDevices ||
		got.DurationDays != ds.DurationDays {
		t.Fatalf("metadata mismatch: got %s/%d/%d want %s/%d/%d",
			got.Name, got.PopulationDevices, got.DurationDays,
			ds.Name, ds.PopulationDevices, ds.DurationDays)
	}
	if len(got.Advertisers) != len(ds.Advertisers) {
		t.Fatalf("%d advertisers, want %d", len(got.Advertisers), len(ds.Advertisers))
	}
	for i, a := range ds.Advertisers {
		g := got.Advertisers[i]
		if g.Site != a.Site || g.MaxValue != a.MaxValue ||
			g.AvgReportValue != a.AvgReportValue || g.BatchSize != a.BatchSize ||
			len(g.Products) != len(a.Products) {
			t.Fatalf("advertiser %d mismatch: %+v vs %+v", i, g, a)
		}
	}
	// The trace is written in stream order; compare against the same.
	want := dataset.Materialize(ds.Stream())
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%d events, want %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, got.Events[i], want.Events[i])
		}
	}
}

// TestReadTraceRejectsMalformed covers the trace parser's failure modes
// that are the file format's own: it is fed from disk, but serves the same
// admission path as the network, so it must reject rather than mis-parse.
// TestIngestValidation holds each line and querier the API refuses to the
// same refusal here.
func TestReadTraceRejectsMalformed(t *testing.T) {
	header := `{"name":"x","populationDevices":10,"durationDays":3,"advertisers":[]}`
	for name, text := range map[string]string{
		"empty":            "",
		"bad-header":       `{"name":`,
		"zero-population":  `{"name":"x","populationDevices":0,"durationDays":3}`,
		"bad-event-json":   header + "\n" + `{"id":`,
		"unknown-kind":     header + "\n" + `{"id":1,"kind":"click","device":1,"day":0,"advertiser":"a"}`,
		"day-out-of-range": header + "\n" + `{"id":1,"kind":"impression","device":1,"day":3,"advertiser":"a"}`,
		"events-out-of-order": header + "\n" +
			`{"id":2,"kind":"impression","device":1,"day":1,"advertiser":"a"}` + "\n" +
			`{"id":1,"kind":"impression","device":1,"day":0,"advertiser":"a"}`,
		// A batch run counts both events; a served run's per-device (day,
		// id) dedupe cursor drops the second, so the two would disagree.
		"repeated-day-and-id": header + "\n" +
			`{"id":1,"kind":"impression","device":1,"day":1,"advertiser":"a"}` + "\n" +
			`{"id":1,"kind":"conversion","device":1,"day":1,"advertiser":"a","product":"p","value":3}`,
		"zero-id":          header + "\n" + `{"id":0,"kind":"impression","device":1,"day":0,"advertiser":"a"}`,
		"empty-advertiser": header + "\n" + `{"id":1,"kind":"impression","device":1,"day":0}`,
		"impression-value": header + "\n" + `{"id":1,"kind":"impression","device":1,"day":0,"advertiser":"a","value":3}`,
		"negative-value":   header + "\n" + `{"id":1,"kind":"conversion","device":1,"day":0,"advertiser":"a","product":"p","value":-5}`,
		"no-product":       header + "\n" + `{"id":1,"kind":"conversion","device":1,"day":0,"advertiser":"a","value":5}`,
	} {
		t.Run(name, func(t *testing.T) {
			_, err := serve.ReadTrace(strings.NewReader(text))
			if err == nil {
				t.Fatalf("malformed trace accepted")
			}
			// A refused event is the last line, and the error names it.
			last := strings.Count(text, "\n") + 1
			if want := fmt.Sprintf("line %d", last); last > 1 && !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		})
	}
}

// TestWriteTraceRejectsDisorder: a source violating its ordering contract
// must fail the export, not produce a trace that silently breaks replay.
// That includes repeating a (day, id): ReadTrace would refuse the file.
func TestWriteTraceRejectsDisorder(t *testing.T) {
	var buf bytes.Buffer
	if err := serve.WriteTrace(&buf, &disorderedSource{}); err == nil {
		t.Fatalf("disordered source exported without error")
	}
	ev := events.Event{ID: 4, Day: 1, Device: 1, Advertiser: events.Intern("a")}
	repeated := &dataset.Dataset{Name: "repeat", PopulationDevices: 1, DurationDays: 5,
		Events: []events.Event{ev, ev}}
	err := serve.WriteTrace(&buf, repeated.Stream())
	if err == nil || !strings.Contains(err.Error(), "trace line 3") {
		t.Fatalf("repeated (day, id) exported with error %v, want one naming trace line 3", err)
	}
}

type disorderedSource struct{ n int }

func (s *disorderedSource) Meta() dataset.Meta {
	return dataset.Meta{Name: "bad", PopulationDevices: 1, DurationDays: 5}
}

func (s *disorderedSource) Next() (ev events.Event, ok bool) {
	s.n++
	switch s.n {
	case 1:
		return events.Event{ID: 2, Day: 3, Device: 1, Advertiser: events.Intern("a")}, true
	case 2:
		return events.Event{ID: 1, Day: 1, Device: 1, Advertiser: events.Intern("a")}, true
	}
	return events.Event{}, false
}

// FuzzTraceLine is the fence on the one boundary a trace and the network
// share: the same bytes, read as the only event line of a trace under
// tinyTraceHeader and scanned as the only element of a POST /v1/events
// body, are accepted as the same event by both or refused with the same
// code by both. Bytes that are not one JSON value cannot be a trace line.
func FuzzTraceLine(f *testing.F) {
	for _, row := range ingestRows {
		if row.event != "" {
			f.Add([]byte(row.event))
		}
	}
	f.Add([]byte(validEvent(1)))
	f.Add([]byte(`{"ID":2,"Kind":"impression","device":3,"day":1,"advertiser":"shop.example","publisher":"néws","extra":[{}]}`))
	f.Add([]byte(`null`))
	header := tinyTraceHeader()
	f.Fuzz(func(t *testing.T, line []byte) {
		if len(line) == 0 || bytes.ContainsAny(line, "\r\n") {
			t.Skip("not one line")
		}
		ds, traceErr := serve.ReadTrace(strings.NewReader(header + string(line)))
		body := []byte(`{"events":[` + string(line) + `]}`)
		switch {
		case !json.Valid(line):
			if code(traceErr) != serve.CodeMalformedJSON {
				t.Fatalf("a line that is no JSON value: %v, want %q", traceErr, serve.CodeMalformedJSON)
			}
			return
		case !json.Valid(body):
			t.Skip("nested past encoding/json's depth limit inside a body")
		}
		evs, scanErr := serve.ScanBody(body, tinyMeta().DurationDays)
		if code(traceErr) != code(scanErr) {
			t.Fatalf("trace line: %v\nbody element: %v\nline: %q", traceErr, scanErr, line)
		}
		if traceErr == nil && (len(ds.Events) != 1 || len(evs) != 1 || ds.Events[0] != evs[0]) {
			t.Fatalf("trace line read %+v, body scanned %+v", ds.Events, evs)
		}
	})
}

// code is a refusal's RequestError code: "" for nil, and the whole error
// text for an error that carries no code.
func code(err error) string {
	var rerr *serve.RequestError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &rerr):
		return rerr.Code
	}
	return err.Error()
}

package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/events"
)

// Trace files are the API on disk: the interchange format between the
// workload generators and the serving stack. The first line is a JSON
// header carrying the dataset's identity and its queriers as
// QueryRegistrations; every later line is one EventWire, an element of a
// POST /v1/events body, in strictly increasing (Day, ID) order. A trace is
// held to the API's rules: its queriers to NewServer's (checkQueriers), its
// lines to validateEvent, so a file an in-process run loads is one a served
// run admits line for line. The format is line-oriented so a load generator
// can stream a multi-gigabyte trace without materializing it, and
// self-describing so a server can pre-register the trace's queriers from
// the header alone.

// traceHeader is the first line of a trace file.
type traceHeader struct {
	Name              string              `json:"name"`
	PopulationDevices int                 `json:"populationDevices"`
	DurationDays      int                 `json:"durationDays"`
	Advertisers       []QueryRegistration `json:"advertisers"`
}

// check refuses a header the API would refuse as a server's identity.
func (h traceHeader) check() error {
	if h.PopulationDevices <= 0 || h.DurationDays <= 0 {
		return fmt.Errorf("trace header needs a positive population and duration")
	}
	if rerr := checkQueriers(h.Advertisers); rerr != nil {
		return rerr
	}
	return nil
}

// checkLine refuses a trace line the API would refuse (validateEvent), or
// one not strictly after prev, the previous line's stamp: a served run's
// per-device dedupe cursor would drop a repeated (day, id) that a batch run
// counts. Every valid event follows the zero stamp, so it serves as the
// first line's prev.
func checkLine(ev *events.Event, names *[4]string, durationDays int, prev events.Stamp) error {
	if rerr := validateEvent(ev, names, durationDays); rerr != nil {
		return rerr
	}
	switch {
	case prev.Before(*ev):
		return nil
	case prev == (events.Stamp{Day: ev.Day, ID: ev.ID}):
		return fmt.Errorf("repeats (day %d, id %d)", ev.Day, ev.ID)
	}
	return fmt.Errorf("event out of (day, id) order")
}

// WriteTrace drains src into w as a trace file, refusing what ReadTrace
// would refuse, so a written trace always reads back and replays in
// admission order.
func WriteTrace(w io.Writer, src dataset.Source) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	m := src.Meta()
	hdr := traceHeader{
		Name:              m.Name,
		PopulationDevices: m.PopulationDevices,
		DurationDays:      m.DurationDays,
		Advertisers:       make([]QueryRegistration, len(m.Advertisers)),
	}
	for i, a := range m.Advertisers {
		hdr.Advertisers[i] = RegistrationFromAdvertiser(a)
	}
	if err := hdr.check(); err != nil {
		return fmt.Errorf("serve: source %q: %w", m.Name, err)
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("serve: writing trace header: %w", err)
	}
	var prev events.Stamp
	for line := 2; ; line++ {
		ev, ok := src.Next()
		if !ok {
			break
		}
		wire := WireFromEvent(ev)
		names := [4]string{wire.Publisher, wire.Advertiser, wire.Campaign, wire.Product}
		if err := checkLine(&ev, &names, m.DurationDays, prev); err != nil {
			return fmt.Errorf("serve: source %q, trace line %d: %w", m.Name, line, err)
		}
		prev = events.Stamp{Day: ev.Day, ID: ev.ID}
		if err := enc.Encode(wire); err != nil {
			return fmt.Errorf("serve: writing trace line %d: %w", line, err)
		}
	}
	return bw.Flush()
}

// WriteTraceFile writes src to a trace file at path.
func WriteTraceFile(path string, src dataset.Source) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return WriteTrace(f, src)
}

// ReadTrace parses a trace file into a materialized Dataset. Each line is
// decoded with encoding/json, the reference the ingest scanner is held to,
// and checked as the API checks an event before any of its names is
// interned; a refused line's error names the line and wraps the
// RequestError the API would answer with.
func ReadTrace(r io.Reader) (*dataset.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("serve: reading trace header: %w", err)
		}
		return nil, fmt.Errorf("serve: empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("serve: parsing trace header: %w", err)
	}
	if err := hdr.check(); err != nil {
		return nil, fmt.Errorf("serve: trace line 1: %w", err)
	}
	ds := &dataset.Dataset{
		Name:              hdr.Name,
		PopulationDevices: hdr.PopulationDevices,
		DurationDays:      hdr.DurationDays,
		Advertisers:       make([]dataset.Advertiser, len(hdr.Advertisers)),
	}
	for i, q := range hdr.Advertisers {
		ds.Advertisers[i] = q.advertiser()
	}
	var prev events.Stamp
	for line := 2; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var wire EventWire
		if err := json.Unmarshal(sc.Bytes(), &wire); err != nil {
			return nil, fmt.Errorf("serve: trace line %d: %w", line, reqErr(CodeMalformedJSON, "%v", err))
		}
		ev, names := wire.event()
		if err := checkLine(&ev, &names, hdr.DurationDays, prev); err != nil {
			return nil, fmt.Errorf("serve: trace line %d: %w", line, err)
		}
		prev = events.Stamp{Day: ev.Day, ID: ev.ID}
		// The line is valid: only now are its names interned.
		ev.Publisher, ev.Advertiser = events.Intern(names[0]), events.Intern(names[1])
		ev.Campaign, ev.Product = events.Intern(names[2]), events.Intern(names[3])
		ds.Events = append(ds.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading trace: %w", err)
	}
	return ds, nil
}

// OpenTrace reads a trace file from path.
func OpenTrace(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/events"
)

// Trace files are the interchange format between the workload generators
// and the serving stack: a JSON header line carrying the dataset's
// metadata, then one JSON event per line in nondecreasing (Day, ID)
// order. The format is line-oriented so a load generator can stream a
// multi-gigabyte trace without materializing it, and self-describing so
// a server can pre-register the trace's queriers from the header alone.

// traceHeader is the first line of a trace file.
type traceHeader struct {
	Name              string       `json:"name"`
	PopulationDevices int          `json:"populationDevices"`
	DurationDays      int          `json:"durationDays"`
	Advertisers       []traceQuery `json:"advertisers"`
}

// traceQuery serializes one advertiser's query parameters.
type traceQuery struct {
	Site           string   `json:"site"`
	Products       []string `json:"products"`
	MaxValue       float64  `json:"maxValue"`
	AvgReportValue float64  `json:"avgReportValue"`
	BatchSize      int      `json:"batchSize"`
}

// traceEvent serializes one event. Zero-valued fields are elided, so
// impression lines omit product/value and conversion lines omit
// publisher/campaign.
type traceEvent struct {
	ID         uint64  `json:"id"`
	Kind       string  `json:"kind"`
	Device     uint64  `json:"device"`
	Day        int     `json:"day"`
	Publisher  string  `json:"publisher,omitempty"`
	Advertiser string  `json:"advertiser"`
	Campaign   string  `json:"campaign,omitempty"`
	Product    string  `json:"product,omitempty"`
	Value      float64 `json:"value,omitempty"`
}

// WriteTrace drains src into w as a trace file. The source's ordering
// contract (nondecreasing (Day, ID)) is enforced as it drains, so a
// written trace is always replayable in admission order.
func WriteTrace(w io.Writer, src Source) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	m := src.Meta()
	hdr := traceHeader{
		Name:              m.Name,
		PopulationDevices: m.PopulationDevices,
		DurationDays:      m.DurationDays,
		Advertisers:       make([]traceQuery, len(m.Advertisers)),
	}
	for i, a := range m.Advertisers {
		hdr.Advertisers[i] = traceQuery{
			Site:           a.Site.String(),
			Products:       names(a.Products),
			MaxValue:       a.MaxValue,
			AvgReportValue: a.AvgReportValue,
			BatchSize:      a.BatchSize,
		}
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("dataset: writing trace header: %w", err)
	}
	var prev events.Event
	n := 0
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		if n > 0 && !prev.Before(ev) {
			if ev.Before(prev) {
				return fmt.Errorf("dataset: source %q out of order at event %d", m.Name, n)
			}
			return fmt.Errorf("dataset: source %q repeats (day %d, id %d) at event %d, trace line %d",
				m.Name, ev.Day, ev.ID, n, n+2)
		}
		prev = ev
		n++
		te := traceEvent{
			ID:         uint64(ev.ID),
			Kind:       ev.Kind.String(),
			Device:     uint64(ev.Device),
			Day:        ev.Day,
			Publisher:  ev.Publisher.String(),
			Advertiser: ev.Advertiser.String(),
			Campaign:   ev.Campaign.String(),
			Product:    ev.Product.String(),
			Value:      ev.Value,
		}
		if err := enc.Encode(te); err != nil {
			return fmt.Errorf("dataset: writing trace event %d: %w", n-1, err)
		}
	}
	return bw.Flush()
}

// WriteTraceFile writes src to a trace file at path.
func WriteTraceFile(path string, src Source) (err error) {
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

// ReadTrace parses a trace file into a materialized Dataset, validating
// the event ordering and every event's structural invariants (known kind,
// day within the trace duration, and the ingest API's rules on IDs, names
// and values). The returned dataset's Stream() feeds the in-process
// engines; its events convert one-to-one to the serving layer's wire shape.
func ReadTrace(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("dataset: reading trace header: %w", err)
		}
		return nil, fmt.Errorf("dataset: empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("dataset: parsing trace header: %w", err)
	}
	if hdr.PopulationDevices <= 0 || hdr.DurationDays <= 0 {
		return nil, fmt.Errorf("dataset: trace header needs a positive population and duration")
	}
	ds := &Dataset{
		Name:              hdr.Name,
		PopulationDevices: hdr.PopulationDevices,
		DurationDays:      hdr.DurationDays,
		Advertisers:       make([]Advertiser, len(hdr.Advertisers)),
	}
	for i, q := range hdr.Advertisers {
		ds.Advertisers[i] = Advertiser{
			Site:           events.Intern(q.Site),
			Products:       make([]events.Sym, len(q.Products)),
			MaxValue:       q.MaxValue,
			AvgReportValue: q.AvgReportValue,
			BatchSize:      q.BatchSize,
		}
		for j, p := range q.Products {
			ds.Advertisers[i].Products[j] = events.Intern(p)
		}
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var te traceEvent
		if err := json.Unmarshal(sc.Bytes(), &te); err != nil {
			return nil, fmt.Errorf("dataset: trace line %d: %w", line, err)
		}
		ev := events.Event{
			ID:     events.EventID(te.ID),
			Device: events.DeviceID(te.Device),
			Day:    te.Day,
			Value:  te.Value,
		}
		switch te.Kind {
		case "impression":
			ev.Kind = events.KindImpression
		case "conversion":
			ev.Kind = events.KindConversion
		default:
			return nil, fmt.Errorf("dataset: trace line %d: unknown kind %q", line, te.Kind)
		}
		if ev.Day < 0 || ev.Day >= hdr.DurationDays {
			return nil, fmt.Errorf("dataset: trace line %d: day %d outside [0,%d)",
				line, ev.Day, hdr.DurationDays)
		}
		// The ingest API's structural rules (serve's validateEvent), so a
		// replayed trace cannot carry a line the server would refuse.
		if bad := badEvent(ev, te); bad != "" {
			return nil, fmt.Errorf("dataset: trace line %d: %s", line, bad)
		}
		if n := len(ds.Events); n > 0 && !ds.Events[n-1].Before(ev) {
			if ev.Before(ds.Events[n-1]) {
				return nil, fmt.Errorf("dataset: trace line %d: event out of (day, id) order", line)
			}
			return nil, fmt.Errorf("dataset: trace line %d: repeats (day %d, id %d)", line, ev.Day, ev.ID)
		}
		// The line is valid: only now are its names interned.
		ev.Publisher, ev.Advertiser = events.Intern(te.Publisher), events.Intern(te.Advertiser)
		ev.Campaign, ev.Product = events.Intern(te.Campaign), events.Intern(te.Product)
		ds.Events = append(ds.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading trace: %w", err)
	}
	return ds, nil
}

// badEvent names what makes a parsed trace event one the ingest API
// refuses, or returns "".
func badEvent(ev events.Event, te traceEvent) string {
	switch {
	case ev.ID == 0:
		return "event id must be positive"
	case te.Advertiser == "":
		return "empty advertiser"
	case ev.Kind == events.KindImpression && ev.Value != 0:
		return "impression with a conversion value"
	case ev.Kind == events.KindConversion && te.Product == "":
		return "conversion without a product"
	case ev.Value < 0:
		return "negative conversion value"
	}
	return ""
}

// names returns the symbols' names, for the trace header.
func names(syms []events.Sym) []string {
	out := make([]string, len(syms))
	for i, s := range syms {
		out[i] = s.String()
	}
	return out
}

// OpenTrace reads a trace file from path.
func OpenTrace(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

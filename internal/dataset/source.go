package dataset

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/events"
)

// Meta describes a dataset without its events: everything the workload
// drivers need to plan queries — population, duration, queriers — with no
// reference to the event log itself. A streaming service receives Meta up
// front and the events one at a time.
type Meta struct {
	// Name identifies the dataset in experiment output.
	Name string
	// PopulationDevices is the total device population, including devices
	// that never convert (off-device budgeting charges them too).
	PopulationDevices int
	// DurationDays is the length of the simulated trace.
	DurationDays int
	// Advertisers lists the queriers.
	Advertisers []Advertiser
}

// Epochs returns the number of epochs the trace spans at the given epoch
// length.
func (m Meta) Epochs(epochDays int) int {
	if m.DurationDays == 0 {
		return 0
	}
	return int(events.EpochOfDay(m.DurationDays-1, epochDays)) + 1
}

// Source is a bounded-memory event iterator: it yields a dataset's events
// one at a time in nondecreasing (Day, ID) order — the order a production
// ingestion tier would receive them — without ever materializing the full
// event log. Implementations are not safe for concurrent use; a consumer
// owns its source.
type Source interface {
	// Meta returns the dataset's metadata. It is valid before the first
	// Next call.
	Meta() Meta
	// Next returns the next event; ok is false once the stream is
	// drained, after which every call keeps returning ok = false.
	Next() (ev events.Event, ok bool)
}

// Suspender is an optional Source extension for live feeds that can end
// their stream early. After Next has returned ok == false, Suspended
// reports whether the stream ended by suspension — the consumer should
// drain and preserve resumable state rather than close out the trace (the
// streaming service skips its final day flush, since the suspended day's
// remaining events arrive after resume). Trace-backed sources never
// suspend; they simply end.
type Suspender interface {
	Suspended() bool
}

// SliceSource streams a materialized dataset's events in (Day, ID) order —
// the adapter that turns the batch micro/PATCG/Criteo generators into
// streaming inputs. It never writes the dataset's events: a trace already
// in strictly increasing (Day, ID) order is read in place, and any other
// is copied and the copy sorted. Memory stays O(dataset), which is what the
// generator-backed sources avoid.
type SliceSource struct {
	meta   Meta
	events []events.Event
	next   int
}

// Stream returns a source over the dataset's events in day order.
func (d *Dataset) Stream() *SliceSource {
	evs := d.Events
	for i := 1; i < len(evs); i++ {
		if !evs[i-1].Before(evs[i]) {
			evs = slices.Clone(d.Events)
			sort.Slice(evs, func(i, j int) bool { return evs[i].Before(evs[j]) })
			break
		}
	}
	return &SliceSource{meta: d.Meta(), events: evs}
}

// Meta implements Source.
func (s *SliceSource) Meta() Meta { return s.meta }

// Next implements Source.
func (s *SliceSource) Next() (events.Event, bool) {
	if s.next >= len(s.events) {
		return events.Event{}, false
	}
	ev := s.events[s.next]
	s.next++
	return ev, true
}

// Meta returns the dataset's metadata view.
func (d *Dataset) Meta() Meta {
	return Meta{
		Name:              d.Name,
		PopulationDevices: d.PopulationDevices,
		DurationDays:      d.DurationDays,
		Advertisers:       d.Advertisers,
	}
}

// Materialize drains a source into an ordinary in-memory Dataset — the
// bridge from any streaming source to the batch engine, which the
// streaming-vs-batch equivalence contract runs both modes against. The
// events end up in a slice of exactly their length: the trace comes out in
// order, so Stream reads it in place, and append's growth slack would stay
// live with every source over it.
//
// It enforces the Source contract as it drains: events must arrive in
// nondecreasing (Day, ID) order, and a violation panics immediately with
// both offending events. A misbehaving source would otherwise corrupt the
// batch planner's cursor silently — batches are chunked in sorted order, so
// a single out-of-place event shifts every later batch boundary. Sources
// that legitimately deliver disordered traffic (the hostile-traffic
// perturbations of internal/scenario) are consumed by the streaming
// service's admission policy, never materialized directly.
func Materialize(s Source) *Dataset {
	m := s.Meta()
	ds := &Dataset{
		Name:              m.Name,
		PopulationDevices: m.PopulationDevices,
		DurationDays:      m.DurationDays,
		Advertisers:       m.Advertisers,
	}
	// The events collect in fixed-size chunks, so nothing is copied while
	// the source drains, and then move once into a slice of their exact
	// length.
	var chunks [][]events.Event
	var prev events.Event
	n := 0
	for ev, ok := s.Next(); ok; ev, ok = s.Next() {
		if n > 0 && ev.Before(prev) {
			panic(fmt.Sprintf(
				"dataset: source %q out of order: event %d (day %d) after event %d (day %d)",
				m.Name, ev.ID, ev.Day, prev.ID, prev.Day))
		}
		if n%materializeChunk == 0 {
			chunks = append(chunks, make([]events.Event, 0, materializeChunk))
		}
		chunks[len(chunks)-1] = append(chunks[len(chunks)-1], ev)
		prev, n = ev, n+1
	}
	if n > 0 {
		ds.Events = make([]events.Event, 0, n)
		for _, c := range chunks {
			ds.Events = append(ds.Events, c...)
		}
	}
	return ds
}

// materializeChunk is the number of events in each of Materialize's chunks.
const materializeChunk = 1 << 13

package main

import (
	"encoding/json"
	"sort"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/serve"
)

// servable returns ds as the served workloads send it: events in (Day, ID)
// order, without the events of advertisers that are not queriers.
func servable(ds *dataset.Dataset) *dataset.Dataset {
	queriers := make(map[events.Site]bool, len(ds.Advertisers))
	for _, a := range ds.Advertisers {
		queriers[a.Site] = true
	}
	out := *ds
	out.Events = make([]events.Event, 0, len(ds.Events))
	for _, ev := range ds.Events {
		if queriers[ev.Advertiser] {
			out.Events = append(out.Events, ev)
		}
	}
	sort.Slice(out.Events, func(i, j int) bool { return out.Events[i].Before(out.Events[j]) })
	return &out
}

// traceMeta is the trace identity a served SUT child boots with. The
// synthetic generator's metadata is analytic; the Criteo-like one has to be
// generated to learn which advertisers are queriers.
func traceMeta(w *workloadSpec, seed uint64) (dataset.Meta, error) {
	if w.Kind == kindDurable || w.Kind == kindBulk {
		src, err := dataset.NewSynthetic(syntheticConfig(seed))
		if err != nil {
			return dataset.Meta{}, err
		}
		return src.Meta(), nil
	}
	ds, err := genTrace(w, seed)
	if err != nil {
		return dataset.Meta{}, err
	}
	return servable(ds).Meta(), nil
}

// request is one POST /v1/events body, prepared before any clock starts.
type request struct {
	Day    int
	Lane   int // writer connection that sends it
	Body   []byte
	Events int
}

// prepareRequests cuts a servable trace into request bodies of at most
// bodyEvents events for `lanes` writer connections, day by day.
//
// The served run must equal the batch reference bit for bit, and the planner
// fills each query's batch in arrival order, so the arrival order of
// conversions has to be fixed however the connections race. Within a day,
// every device that converts that day is therefore sent on lane 0, in trace
// order; the remaining devices (impressions only, whose arrival order no
// query can observe) are spread over the lanes to even out the event
// counts. A device's events stay on one lane, which keeps its (day, id)
// admission cursor monotone. Days never overlap: the generator waits for
// every ack of a day before sending the next.
func prepareRequests(ds *dataset.Dataset, lanes, bodyEvents int) ([][]request, error) {
	days := make([][]request, ds.DurationDays)
	evs := ds.Events
	for len(evs) > 0 {
		day := evs[0].Day
		n := 0
		for n < len(evs) && evs[n].Day == day {
			n++
		}
		reqs, err := prepareDay(evs[:n], lanes, bodyEvents)
		if err != nil {
			return nil, err
		}
		days[day] = reqs
		evs = evs[n:]
	}
	return days, nil
}

func prepareDay(evs []events.Event, lanes, bodyEvents int) ([]request, error) {
	perDevice := make(map[events.DeviceID]int)
	laneOf := make(map[events.DeviceID]int)
	for _, ev := range evs {
		perDevice[ev.Device]++
		if ev.IsConversion() {
			laneOf[ev.Device] = 0
		}
	}
	load := make([]int, lanes)
	for dev := range laneOf {
		load[0] += perDevice[dev]
	}
	perLane := make([][]serve.EventWire, lanes)
	for _, ev := range evs {
		lane, ok := laneOf[ev.Device]
		if !ok {
			// First sighting of a non-converting device: lightest lane.
			for l := range load {
				if load[l] < load[lane] {
					lane = l
				}
			}
			laneOf[ev.Device] = lane
			load[lane] += perDevice[ev.Device]
		}
		perLane[lane] = append(perLane[lane], serve.WireFromEvent(ev))
	}
	var reqs []request
	// Bodies are listed lane-interleaved, the order the open loop's global
	// schedule walks them in.
	for off := 0; ; off += bodyEvents {
		any := false
		for lane, wires := range perLane {
			if off >= len(wires) {
				continue
			}
			any = true
			chunk := wires[off:min(off+bodyEvents, len(wires))]
			body, err := json.Marshal(serve.IngestRequest{Events: chunk})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{Day: int(chunk[0].Day), Lane: lane, Body: body, Events: len(chunk)})
		}
		if !any {
			return reqs, nil
		}
	}
}

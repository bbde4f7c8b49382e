package stream

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
)

// FuzzScenarioIngest feeds arbitrary hostile event streams — late,
// out-of-order, bursty, device-churning, any shape three bytes can encode —
// to the service under the drop-late admission policy and checks the
// robustness invariants the scenario harness relies on:
//
//   - Serve never panics and never errors: hostile *traffic* is an admission
//     problem, not a service failure.
//   - The run is deterministic: serving the same stream twice produces
//     identical results and counters.
//   - Admission matches the pure rule: an event is dropped exactly when its
//     day is behind the day clock, and drained = accepted + dropped.
//   - No device filter is ever over-consumed, whatever the traffic does.
//
// Each fuzz event is three bytes: day, device, and a kind/value byte.
func FuzzScenarioIngest(f *testing.F) {
	// In-order clean traffic.
	f.Add([]byte{5, 1, 2, 5, 2, 3, 6, 3, 1, 7, 4, 5})
	// Late shape: days walk backwards past a closed day.
	f.Add([]byte{9, 1, 3, 4, 2, 3, 3, 3, 1, 9, 4, 1, 0, 5, 7})
	// Churn shape: one device's traffic continues under other identities.
	f.Add([]byte{2, 1, 1, 4, 1, 3, 8, 9, 3, 12, 9, 1, 20, 9, 5})
	// Skew shape: day jumps far forward, then stragglers behind it.
	f.Add([]byte{1, 1, 1, 29, 2, 3, 2, 3, 1, 2, 4, 3, 29, 5, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeFuzzEvents(data)
		run := serveFuzz(t, evs)

		// Determinism: an identical stream reproduces the run bit for bit.
		again := serveFuzz(t, evs)
		if !reflect.DeepEqual(run.Results, again.Results) ||
			run.EventsIngested != again.EventsIngested ||
			run.EventsDropped != again.EventsDropped {
			t.Fatal("same stream served twice diverged")
		}

		// Admission oracle: day clock starts at 0 and only advances.
		day, dropped := 0, 0
		for _, ev := range evs {
			if ev.Day < day {
				dropped++
				continue
			}
			day = ev.Day
		}
		if run.EventsIngested != len(evs) || run.EventsDropped != dropped {
			t.Fatalf("drained %d dropped %d, admission rule says %d/%d",
				run.EventsIngested, run.EventsDropped, len(evs), dropped)
		}

		// Budget safety: no (querier, epoch) filter over capacity.
		run.Fleet.Range(func(d *core.Device) bool {
			for _, row := range d.Ledger() {
				if row.Consumed > row.Capacity*(1+1e-9) {
					t.Errorf("device %d: querier %s epoch %d consumed %g over capacity %g",
						d.ID(), row.Querier, row.Epoch, row.Consumed, row.Capacity)
				}
			}
			return true
		})
	})
}

// decodeFuzzEvents maps the fuzz payload to a bounded event stream over the
// fakeSource scenario: days in [0, 30), eight devices, conversions and
// impressions for the one advertiser. Event IDs are sequential in delivery
// order, matching the scenario generator's renumbering convention.
func decodeFuzzEvents(data []byte) []events.Event {
	const maxEvents = 256
	var evs []events.Event
	for i := 0; i+2 < len(data) && len(evs) < maxEvents; i += 3 {
		day := int(data[i]) % 30
		dev := events.DeviceID(1 + int(data[i+1])%8)
		kv := data[i+2]
		ev := events.Event{
			ID:         events.EventID(len(evs) + 1),
			Device:     dev,
			Day:        day,
			Advertiser: events.Intern("nike.example"),
		}
		if kv&1 == 0 {
			ev.Kind = events.KindImpression
			ev.Publisher = events.Intern("pub.example")
			ev.Campaign = events.Intern("product-0")
		} else {
			ev.Kind = events.KindConversion
			ev.Product = events.Intern("product-0")
			ev.Value = float64((kv >> 1) & 7)
		}
		evs = append(evs, ev)
	}
	return evs
}

// serveFuzz runs one hostile stream through the service with a tight global
// budget (so denials actually occur) and fails the test on any error.
func serveFuzz(t *testing.T, evs []events.Event) *Run {
	t.Helper()
	svc, err := New(Config{
		Source:       &fakeSource{meta: testMeta(), evs: evs},
		FixedEpsilon: 1, EpsilonG: 2,
		LatePolicy: LateDrop,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := svc.Serve()
	if err != nil {
		t.Fatalf("hostile stream errored under LateDrop: %v", err)
	}
	return run
}

package stream

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
)

var fanSites = []events.Site{events.Intern("nike.com"), events.Intern("adidas.com"), events.Intern("puma.com")}

func fanoutDB(rng *rand.Rand, devices int) *events.Database {
	var evs []events.Event
	for i, n := 0, 40+rng.Intn(80); i < n; i++ {
		evs = append(evs, events.Event{
			ID: events.EventID(i + 1), Kind: events.KindImpression,
			Device:     events.DeviceID(1 + rng.Intn(devices)),
			Day:        rng.Intn(42),
			Advertiser: fanSites[rng.Intn(3)],
			Campaign:   []events.Sym{events.Intern("shoes"), events.Intern("hats")}[rng.Intn(2)],
		})
	}
	return events.NewFrozen(7, evs)
}

func fanoutRequest(rng *rand.Rand) *core.Request {
	site := fanSites[rng.Intn(3)]
	req := &core.Request{
		Querier:           site.String(),
		FirstEpoch:        events.Epoch(rng.Intn(3)),
		Selector:          events.NewCampaignSelector(site, events.Intern("shoes")),
		Function:          attribution.Slots{Logic: attribution.LastTouch{}, MaxImpressions: 2, Value: 70},
		Epsilon:           []float64{0.004, 0.01, 0.4}[rng.Intn(3)],
		ReportSensitivity: 70,
		QuerySensitivity:  100,
		PNorm:             1,
	}
	req.LastEpoch = req.FirstEpoch + events.Epoch(rng.Intn(5))
	return req
}

func fanoutFleet(db *events.Database, epsG float64) *core.Fleet {
	return core.NewFleet(0, db, epsG, core.CookieMonsterPolicy{})
}

// fanoutDevices resolves each conversion's device in fleet, as the
// executor's prepare stage does before Generate.
func fanoutDevices(fleet *core.Fleet, convs []events.Event) []*core.Device {
	devs := make([]*core.Device, len(convs))
	for i, conv := range convs {
		devs[i] = fleet.GetOrCreate(conv.Device)
	}
	return devs
}

// TestGeneratorMatchesSequential holds the parallel, batched-per-device
// generate stage to the sequential one-at-a-time reference: for random
// super-batches (several queriers' conversions concatenated, devices shared
// across them) the Generator at parallelism 4 must produce the reports, stats,
// and per-device ledger states of a plain batch-order loop of one-request
// device visits over a second fleet. One Generator carries its scratch across every
// batch and seed; under `go test -race` this doubles as the concurrent
// device-group race check.
func TestGeneratorMatchesSequential(t *testing.T) {
	var gen Generator
	var scratch core.MultiScratch
	repOne, stOne := make([]*core.Report, 1), make([]core.ReportStats, 1)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const devices = 6
		db := fanoutDB(rng, devices)
		epsG := []float64{0.004, 0.02, 1}[rng.Intn(3)]
		fleetPar := fanoutFleet(db, epsG)
		fleetSeq := fanoutFleet(db, epsG)

		for batch := 0; batch < 4; batch++ {
			n := 1 + rng.Intn(24)
			convs := make([]events.Event, n)
			reqs := make([]*core.Request, n)
			for i := range convs {
				convs[i] = events.Event{
					ID: events.EventID(1000 + i), Kind: events.KindConversion,
					Device: events.DeviceID(1 + rng.Intn(devices)),
					Day:    30 + rng.Intn(5),
				}
				reqs[i] = fanoutRequest(rng)
			}

			reports, stats, err := gen.Generate(fanoutDevices(fleetPar, convs), reqs, convs, 4)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}

			for i := range convs {
				dev := fleetSeq.GetOrCreate(convs[i].Device)
				if _, err := dev.GenerateReportBatch(reqs[i:i+1], &scratch, repOne, stOne); err != nil {
					t.Fatal(err)
				}
				repRef, stRef := repOne[0], stOne[0]
				rep := reports[i]
				if rep.Querier != repRef.Querier || rep.Device != repRef.Device ||
					!slices.Equal(rep.Histogram, repRef.Histogram) ||
					rep.BiasFlag != repRef.BiasFlag {
					t.Fatalf("seed %d batch %d conv %d: report %+v vs %+v",
						seed, batch, i, rep, repRef)
				}
				if stats[i] != stRef {
					t.Fatalf("seed %d batch %d conv %d: stats %+v vs %+v",
						seed, batch, i, stats[i], stRef)
				}
			}
			for d := events.DeviceID(1); d <= devices; d++ {
				lp := fleetPar.GetOrCreate(d).Ledger()
				ls := fleetSeq.GetOrCreate(d).Ledger()
				if !reflect.DeepEqual(lp, ls) {
					t.Fatalf("seed %d batch %d device %d: ledgers diverged", seed, batch, d)
				}
			}
		}
	}
}

// TestGeneratorErrorDeterministic pins the satellite contract that replaced
// the worker panic: malformed requests at several conversion indices, on
// different devices, must surface as one error naming the smallest offending
// conversion index — the same error for every worker count — while valid
// devices' visits complete without charging the offenders.
func TestGeneratorErrorDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := fanoutDB(rng, 6)
	const n = 20
	convs := make([]events.Event, n)
	reqs := make([]*core.Request, n)
	for i := range convs {
		convs[i] = events.Event{
			ID: events.EventID(1000 + i), Kind: events.KindConversion,
			Device: events.DeviceID(1 + i%6), Day: 30,
		}
		reqs[i] = fanoutRequest(rng)
	}
	// Invalid requests on three different devices; 7 is the smallest index.
	reqs[7].Epsilon = -1
	reqs[11].LastEpoch = reqs[11].FirstEpoch - 1
	reqs[16].Selector = nil

	var msgs []string
	for _, workers := range []int{1, 2, 8} {
		fleet := fanoutFleet(db, 1)
		_, _, err := new(Generator).Generate(fanoutDevices(fleet, convs), reqs, convs, workers)
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !strings.Contains(err.Error(), "conversion 7") {
			t.Fatalf("workers=%d: error does not name smallest conversion: %v", workers, err)
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("error differs across worker counts: %q vs %q", msgs[0], m)
		}
	}
}

// TestGeneratorLengthMismatch: a device or request list that does not line
// up with the batch is refused with an error before any device is visited,
// never an index panic in a worker.
func TestGeneratorLengthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := fanoutDB(rng, 4)
	convs := make([]events.Event, 6)
	reqs := make([]*core.Request, len(convs))
	for i := range convs {
		convs[i] = events.Event{ID: events.EventID(1000 + i), Kind: events.KindConversion,
			Device: events.DeviceID(1 + i%4), Day: 30}
		reqs[i] = fanoutRequest(rng)
	}
	fleet := fanoutFleet(db, 1)
	devs := fanoutDevices(fleet, convs)
	for _, tc := range []struct {
		name string
		devs []*core.Device
		reqs []*core.Request
	}{
		{"one device short", devs[:5], reqs},
		{"one device over", append(slices.Clone(devs), devs[0]), reqs},
		{"no devices", nil, reqs},
		{"one request short", devs, reqs[:5]},
	} {
		for _, workers := range []int{1, 4} {
			_, _, err := new(Generator).Generate(tc.devs, tc.reqs, convs, workers)
			if err == nil || !strings.Contains(err.Error(), "for 6 conversions") {
				t.Fatalf("%s, workers=%d: err = %v, want a length mismatch error", tc.name, workers, err)
			}
		}
	}
	for d := events.DeviceID(1); d <= 4; d++ {
		if st := fleet.GetOrCreate(d).Ledger(); len(st) != 0 {
			t.Fatalf("device %d charged by a refused batch: %v", d, st)
		}
	}
}

// TestGrouperReuse checks the reusable grouping scratch against a fresh
// zero-value Grouper across a sequence of batches of varying shape (growing,
// shrinking, empty), where the returned groups alias scratch reused from
// prior calls.
func TestGrouperReuse(t *testing.T) {
	var g Grouper
	rng := rand.New(rand.NewSource(9))
	for batch := 0; batch < 30; batch++ {
		n := rng.Intn(25)
		convs := make([]events.Event, n)
		for i := range convs {
			convs[i] = events.Event{Device: events.DeviceID(rng.Intn(5))}
		}
		got := g.Group(convs)
		want := new(Grouper).Group(convs)
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d groups, want %d", batch, len(got), len(want))
		}
		for gi := range want {
			if !slices.Equal(got[gi], want[gi]) {
				t.Fatalf("batch %d group %d: %v want %v", batch, gi, got[gi], want[gi])
			}
		}
	}
}

// TestGroupByDevicePartition checks the Grouper's contract on its own: the
// groups partition the batch, each holds one device's conversions, and each
// preserves batch order.
func TestGroupByDevicePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	evs := make([]events.Event, 50)
	for i := range evs {
		evs[i] = events.Event{
			ID: events.EventID(i + 1), Kind: events.KindConversion,
			Device: events.DeviceID(1 + rng.Intn(12)), Day: 30,
		}
	}
	groups := new(Grouper).Group(evs)
	seen := make(map[int]bool)
	total := 0
	for _, g := range groups {
		dev := evs[g[0]].Device
		last := -1
		for _, i := range g {
			if evs[i].Device != dev {
				t.Fatalf("group mixes devices %d and %d", dev, evs[i].Device)
			}
			if i <= last {
				t.Fatal("group indices out of batch order")
			}
			if seen[i] {
				t.Fatalf("index %d in two groups", i)
			}
			seen[i] = true
			last = i
			total++
		}
	}
	if total != len(evs) {
		t.Fatalf("groups cover %d of %d conversions", total, len(evs))
	}
}

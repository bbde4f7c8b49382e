package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/dataset"
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
	return core.NewFleet(db, epsG, core.CookieMonsterPolicy{})
}

// ledgerState is everything a device's ledger holds: its slots (Ledger)
// and, per epoch ever marked, the queriers that requested it with what each
// consumed (RangeRequested).
func ledgerState(dev *core.Device) []any {
	st := []any{dev.Ledger()}
	dev.RangeRequested(func(e events.Epoch, queriers []events.Site, consumed []float64) {
		st = append(st, e, slices.Clone(queriers), slices.Clone(consumed))
	})
	return st
}

// TestGeneratorMatchesSequential holds the parallel, batched-per-device
// generate stage to the sequential one-at-a-time reference: for random
// super-batches (several queriers' conversions concatenated, devices shared
// across them) the Generator at parallelism 1, 2 and 8 must produce the
// reports, stats, truths and per-device ledger states — marks included — of
// a plain batch-order loop over a second fleet that marks each request's
// window and then visits it alone (or, central, computes its truth). One
// Generator of each kind carries its scratch across every batch and seed;
// under `go test -race` this doubles as the concurrent device-group race
// check, the fleet's devices being created from the workers.
func TestGeneratorMatchesSequential(t *testing.T) {
	var scratch core.MultiScratch
	var truthScratch core.Scratch
	repOne, stOne := make([]*core.Report, 1), make([]core.ReportStats, 1)
	for _, central := range []bool{false, true} {
		gen := Generator{central: central}
		for _, workers := range []int{1, 2, 8} {
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				const devices = 6
				db := fanoutDB(rng, devices)
				epsG := []float64{0.004, 0.02, 1}[rng.Intn(3)]
				fleetPar := fanoutFleet(db, epsG)
				fleetSeq := fanoutFleet(db, epsG)
				where := func(batch int) string {
					return fmt.Sprintf("central=%v workers=%d seed %d batch %d", central, workers, seed, batch)
				}

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

					out, err := gen.Generate(fleetPar, reqs, convs, nil, workers)
					if err != nil {
						t.Fatalf("%s: %v", where(batch), err)
					}

					for i, req := range reqs {
						dev := fleetSeq.GetOrCreate(convs[i].Device)
						dev.MarkRequested(events.Intern(req.Querier), req.FirstEpoch, req.LastEpoch)
						if central {
							if want := dev.TrueReportValue(req, &truthScratch); out[i].truth != want {
								t.Fatalf("%s conv %d: truth %v vs %v", where(batch), i, out[i].truth, want)
							}
							continue
						}
						if _, err := dev.GenerateReportBatch(reqs[i:i+1], &scratch, repOne, stOne); err != nil {
							t.Fatal(err)
						}
						repRef, stRef := repOne[0], stOne[0]
						rep := out[i].report
						if rep.Querier != repRef.Querier || rep.Device != repRef.Device ||
							!slices.Equal(rep.Histogram, repRef.Histogram) ||
							rep.BiasFlag != repRef.BiasFlag {
							t.Fatalf("%s conv %d: report %+v vs %+v", where(batch), i, rep, repRef)
						}
						if out[i].stats != stRef {
							t.Fatalf("%s conv %d: stats %+v vs %+v", where(batch), i, out[i].stats, stRef)
						}
					}
					if fleetPar.Len() != fleetSeq.Len() {
						t.Fatalf("%s: %d devices vs %d", where(batch), fleetPar.Len(), fleetSeq.Len())
					}
					fleetSeq.Range(func(ds *core.Device) bool {
						if !reflect.DeepEqual(ledgerState(fleetPar.Get(ds.ID())), ledgerState(ds)) {
							t.Fatalf("%s device %d: ledgers diverged", where(batch), ds.ID())
						}
						return true
					})
				}
			}
		}
	}
}

// TestGeneratorErrorDeterministic pins the satellite contract that replaced
// the worker panic: malformed requests at several conversion indices, on
// different devices, must surface as one error naming the smallest offending
// conversion index — the same error for every worker count — while valid
// devices' groups are marked and visited and the offenders' devices are
// never created, so nothing marks or charges them.
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
	for _, central := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			fleet := fanoutFleet(db, 1)
			_, err := (&Generator{central: central}).Generate(fleet, reqs, convs, nil, workers)
			if err == nil {
				t.Fatalf("central=%v workers=%d: expected error", central, workers)
			}
			if !strings.Contains(err.Error(), "conversion 7") {
				t.Fatalf("central=%v workers=%d: error does not name smallest conversion: %v", central, workers, err)
			}
			msgs = append(msgs, err.Error())
			for d := events.DeviceID(1); d <= 6; d++ {
				offender := d == convs[7].Device || d == convs[11].Device || d == convs[16].Device
				dev := fleet.Get(d)
				if offender != (dev == nil) {
					t.Fatalf("central=%v workers=%d: device %d (offender %v) created = %v",
						central, workers, d, offender, dev != nil)
				}
				if dev != nil && len(ledgerState(dev)) == 1 {
					t.Fatalf("central=%v workers=%d: valid device %d not marked", central, workers, d)
				}
			}
		}
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("error differs across worker counts: %q vs %q", msgs[0], m)
		}
	}
}

// TestGeneratorLengthMismatch: a request list that does not line up with
// the batch is refused with an error before any device is created, marked
// or visited, never an index panic in a worker.
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
	for _, tc := range []struct {
		name string
		reqs []*core.Request
	}{
		{"one request short", reqs[:5]},
		{"one request over", append(slices.Clone(reqs), reqs[0])},
		{"no requests", nil},
	} {
		for _, central := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				fleet := fanoutFleet(db, 1)
				_, err := (&Generator{central: central}).Generate(fleet, tc.reqs, convs, nil, workers)
				if err == nil || !strings.Contains(err.Error(), "for 6 conversions") {
					t.Fatalf("%s, central=%v workers=%d: err = %v, want a length mismatch error",
						tc.name, central, workers, err)
				}
				if fleet.Len() != 0 {
					t.Fatalf("%s, central=%v workers=%d: a refused batch created %d devices",
						tc.name, central, workers, fleet.Len())
				}
			}
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

// TestPrepareAllocatesOneBlockPerQuery pins what building one query's
// requests allocates: one block of request values per query, plus each
// conversion's interface boxes — the window selector, the product selector
// inside it, and the attribution function — and no request object of its
// own per conversion, nor any device, since prepare resolves none.
func TestPrepareAllocatesOneBlockPerQuery(t *testing.T) {
	adv := dataset.Advertiser{Site: events.Intern("nike.com"), MaxValue: 100, AvgReportValue: 20, BatchSize: 64}
	product := events.Intern("shoes")
	meta := dataset.Meta{PopulationDevices: 16, DurationDays: 60, Advertisers: []dataset.Advertiser{adv}}
	e := NewEngine(Config{}, meta, events.NewFrozen(7, nil))
	batch := make([]events.Event, adv.BatchSize)
	for i := range batch {
		batch[i] = events.Event{ID: events.EventID(i + 1), Kind: events.KindConversion,
			Device: events.DeviceID(1 + i%16), Day: 40 + i%5, Advertiser: adv.Site, Product: product,
			Value: float64(10 + i)}
	}
	q := &Query{adv: adv, product: product, batch: batch, epsilon: 0.5}
	allocs := testing.AllocsPerRun(20, func() { e.prepare(q) })
	if want := float64(1 + 3*len(batch)); allocs != want {
		t.Fatalf("prepare of %d conversions: %v allocations, want %v (one request block, then three boxes each)",
			len(batch), allocs, want)
	}
	if e.fleet.Len() != 0 {
		t.Fatalf("prepare created %d devices", e.fleet.Len())
	}
}

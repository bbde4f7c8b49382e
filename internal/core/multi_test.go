package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/attribution"
	"repro/internal/events"
)

var multiSites = []events.Site{events.Intern("nike.com"), events.Intern("adidas.com"), events.Intern("puma.com")}

func randomMultiDB(rng *rand.Rand, dev events.DeviceID) *events.Database {
	var evs []events.Event
	n := rng.Intn(60)
	for i := 0; i < n; i++ {
		kind := events.KindImpression
		if rng.Intn(6) == 0 {
			kind = events.KindConversion
		}
		evs = append(evs, events.Event{
			ID: events.EventID(i + 1), Kind: kind,
			Device:     dev,
			Day:        rng.Intn(42),
			Advertiser: multiSites[rng.Intn(3)],
			Campaign:   []events.Sym{events.Intern("shoes"), events.Intern("hats")}[rng.Intn(2)],
			Product:    []events.Sym{events.Intern("shoes"), events.Intern("hats")}[rng.Intn(2)],
		})
	}
	return events.NewFrozen(7, evs)
}

// randomMultiRequest builds a valid request with a random querier, window,
// selector (occasionally a SelectorFunc, which cannot compile and is tested
// with Selector.Relevant in the window selection), epsilon, and bias spec.
func randomMultiRequest(rng *rand.Rand) *Request {
	site := multiSites[rng.Intn(3)]
	var sel events.Selector
	switch rng.Intn(4) {
	case 0:
		sel = events.NewCampaignSelector(site, events.Intern("shoes"))
	case 1:
		sel = events.ProductSelector{Advertiser: site, Product: events.Intern("hats")}
	case 2:
		sel = events.WindowSelector{
			Inner:    events.NewCampaignSelector(site),
			FirstDay: rng.Intn(20),
			LastDay:  10 + rng.Intn(40),
		}
	default:
		day := rng.Intn(42)
		sel = events.SelectorFunc(func(ev events.Event) bool {
			return ev.IsImpression() && ev.Advertiser == site && ev.Day >= day
		})
	}
	req := &Request{
		Querier:           site.String(),
		FirstEpoch:        events.Epoch(rng.Intn(3)),
		Selector:          sel,
		Function:          attribution.Slots{Logic: attribution.LastTouch{}, MaxImpressions: 2, Value: 70},
		Epsilon:           []float64{0.004, 0.01, 0.4}[rng.Intn(3)],
		ReportSensitivity: 70,
		QuerySensitivity:  100,
		PNorm:             1,
	}
	req.LastEpoch = req.FirstEpoch + events.Epoch(rng.Intn(5))
	if rng.Intn(4) == 0 {
		req.Bias = &BiasSpec{Kappa: 10, LastTouch: rng.Intn(2) == 0}
	}
	return req
}

// checkSelection holds a filled selection — a Scratch's truthful slices —
// to RelevantWindow, the allocating Select-per-epoch statement of it, which
// shares no code with selectWindow or the window scan. Reports alone
// can miss a wrong selection: an aliased record that carries irrelevant
// events, or a selector tested the wrong way, may still attribute the same.
func checkSelection(t *testing.T, db *events.Database, dev events.DeviceID, req *Request, got [][]events.Event, path string) {
	t.Helper()
	for i, want := range RelevantWindow(db, dev, req) {
		if !slices.Equal(got[i], want) {
			t.Fatalf("%s selection of epoch %d = %v, want %v", path, req.FirstEpoch+events.Epoch(i), got[i], want)
		}
	}
}

func sameReportModuloNonce(a, b *Report) bool {
	return a.Querier == b.Querier && a.Device == b.Device &&
		slices.Equal(a.Histogram, b.Histogram) && a.BiasFlag == b.BiasFlag &&
		a.Epsilon == b.Epsilon && a.QuerySensitivity == b.QuerySensitivity
}

// TestBatchMatchesSequentialScratch is the batched visit's equivalence
// property: random request batches against random frozen stores must produce,
// via one GenerateReportBatch visit, exactly what one-request visits produce
// request by request on a second device — reports (modulo nonce), fold
// stats, and the device's full ledger state after every batch. Low epsilon-G
// values force denials so the charge order is load-bearing, and SelectorFunc
// requests exercise the opaque selection.
func TestBatchMatchesSequentialScratch(t *testing.T) {
	var msRef, ms MultiScratch
	repRef := make([]*Report, 1)
	stRef := make([]ReportStats, 1)
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const dev = events.DeviceID(7)
		db := randomMultiDB(rng, dev)
		epsG := []float64{0, 0.004, 0.02, 1}[rng.Intn(4)]
		var policy LossPolicy = CookieMonsterPolicy{}
		if rng.Intn(2) == 1 {
			policy = ARALikePolicy{}
		}
		// Two devices over one store: budgets must evolve identically.
		dRef := NewDevice(dev, db, epsG, policy)
		dBat := NewDevice(dev, db, epsG, policy)

		for batch := 0; batch < 6; batch++ {
			n := 1 + rng.Intn(6)
			reqs := make([]*Request, n)
			for j := range reqs {
				reqs[j] = randomMultiRequest(rng)
			}

			reports := make([]*Report, n)
			stats := make([]ReportStats, n)
			if lane, err := dBat.GenerateReportBatch(reqs, &ms, reports, stats); err != nil {
				t.Fatalf("seed %d batch %d: lane %d: %v", seed, batch, lane, err)
			}

			for j, req := range reqs {
				if _, err := dRef.GenerateReportBatch(reqs[j:j+1], &msRef, repRef, stRef); err != nil {
					t.Fatal(err)
				}
				if !sameReportModuloNonce(repRef[0], reports[j]) {
					t.Fatalf("seed %d batch %d req %d: report %+v vs %+v",
						seed, batch, j, repRef[0], reports[j])
				}
				if stRef[0] != stats[j] {
					t.Fatalf("seed %d batch %d req %d: stats %+v vs %+v",
						seed, batch, j, stRef[0], stats[j])
				}
				checkSelection(t, db, dev, req, ms.ss[j].truthful, "batched")
				checkSelection(t, db, dev, req, msRef.ss[0].truthful, "sequential")
			}
			for j := 1; j < n; j++ {
				if reports[j].Nonce != reports[j-1].Nonce+1 {
					t.Fatalf("seed %d batch %d: nonce block not consecutive: %d after %d",
						seed, batch, reports[j].Nonce, reports[j-1].Nonce)
				}
			}
			if !reflect.DeepEqual(dRef.Ledger(), dBat.Ledger()) {
				t.Fatalf("seed %d batch %d: ledger states diverged:\n%v\nvs\n%v",
					seed, batch, dRef.Ledger(), dBat.Ledger())
			}
		}
	}
}

// TestBatchMutableStoreFallback runs the same equivalence against a store
// filled by Record rather than bulk-loaded. The built-in selectors compile
// there too (Record fills the scan-key column as it appends), while the
// SelectorFunc requests take Selector.Relevant in the shared selection loop,
// so the batched charge and nonce paths are held to one-request visits
// whichever test selects.
func TestBatchMutableStoreFallback(t *testing.T) {
	var msRef, ms MultiScratch
	repRef := make([]*Report, 1)
	stRef := make([]ReportStats, 1)
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := events.NewDatabase()
		for i, n := 0, rng.Intn(40); i < n; i++ {
			day := rng.Intn(35)
			db.Record(events.EpochOfDay(day, 7), events.Event{
				ID: events.EventID(i + 1), Kind: events.KindImpression,
				Device: 7, Day: day, Advertiser: multiSites[rng.Intn(3)],
				Campaign: []events.Sym{events.Intern("shoes"), events.Intern("hats")}[rng.Intn(2)],
			})
		}
		dRef := NewDevice(7, db, 0.02, CookieMonsterPolicy{})
		dBat := NewDevice(7, db, 0.02, CookieMonsterPolicy{})
		for batch := 0; batch < 4; batch++ {
			n := 2 + rng.Intn(4)
			reqs := make([]*Request, n)
			for j := range reqs {
				reqs[j] = randomMultiRequest(rng)
			}
			reports := make([]*Report, n)
			stats := make([]ReportStats, n)
			if lane, err := dBat.GenerateReportBatch(reqs, &ms, reports, stats); err != nil {
				t.Fatalf("seed %d: lane %d: %v", seed, lane, err)
			}
			for j, req := range reqs {
				if _, err := dRef.GenerateReportBatch(reqs[j:j+1], &msRef, repRef, stRef); err != nil {
					t.Fatal(err)
				}
				if !sameReportModuloNonce(repRef[0], reports[j]) || stRef[0] != stats[j] {
					t.Fatalf("seed %d batch %d req %d: mismatch", seed, batch, j)
				}
				checkSelection(t, db, 7, req, ms.ss[j].truthful, "batched")
				checkSelection(t, db, 7, req, msRef.ss[0].truthful, "sequential")
			}
			if !reflect.DeepEqual(dRef.Ledger(), dBat.Ledger()) {
				t.Fatalf("seed %d batch %d: ledger diverged", seed, batch)
			}
		}
	}
}

// TestBatchValidatesUpFront pins the error contract: a malformed request
// anywhere in the batch aborts the whole visit before anything is selected,
// charged, or written, and identifies the first offending lane.
func TestBatchValidatesUpFront(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := randomMultiDB(rng, 7)
	d := NewDevice(7, db, 1, CookieMonsterPolicy{})
	var ms MultiScratch

	good := func() *Request { return randomMultiRequest(rand.New(rand.NewSource(5))) }
	bad := good()
	bad.Epsilon = -1

	reqs := []*Request{good(), bad, good()}
	reports := make([]*Report, 3)
	stats := make([]ReportStats, 3)
	before := d.Ledger()
	lane, err := d.GenerateReportBatch(reqs, &ms, reports, stats)
	if err == nil || lane != 1 {
		t.Fatalf("want error at lane 1, got lane %d err %v", lane, err)
	}
	for j, rep := range reports {
		if rep != nil {
			t.Fatalf("slot %d written despite abort", j)
		}
	}
	if !reflect.DeepEqual(before, d.Ledger()) {
		t.Fatal("ledger mutated despite abort")
	}

	// An empty batch is a no-op success.
	if lane, err := d.GenerateReportBatch(nil, &ms, nil, nil); lane != -1 || err != nil {
		t.Fatalf("empty batch: lane %d err %v", lane, err)
	}
}

// TestBatchVisitAllocatesOnlyReports pins the visit's allocation budget:
// after warm-up, with a reused MultiScratch, a device visit of one request
// and one of four compiled requests (no denial) allocate only what they
// return — each *Report and its histogram.
func TestBatchVisitAllocatesOnlyReports(t *testing.T) {
	camps := []events.Sym{events.Intern("shoes"), events.Intern("hats")}
	var evs []events.Event
	for i := 0; i < 48; i++ {
		evs = append(evs, events.Event{
			ID: events.EventID(i + 1), Kind: events.KindImpression, Device: 7, Day: i % 35,
			Advertiser: multiSites[i%3], Campaign: camps[i%2], Product: camps[i%2],
		})
	}
	d := NewDevice(7, events.NewFrozen(7, evs), 1e9, CookieMonsterPolicy{})
	req := func(q events.Site, sel events.Selector) *Request {
		return &Request{
			Querier: q.String(), FirstEpoch: 0, LastEpoch: 4, Selector: sel,
			Function: attribution.ScalarValue{Value: 70}, Epsilon: 0.01,
			ReportSensitivity: 70, QuerySensitivity: 100, PNorm: 1,
		}
	}
	four := []*Request{
		req(multiSites[0], events.NewCampaignSelector(multiSites[0], camps[0])),
		req(multiSites[1], events.ProductSelector{Advertiser: multiSites[1], Product: camps[1]}),
		req(multiSites[2], events.WindowSelector{Inner: events.NewCampaignSelector(multiSites[2]), FirstDay: 3, LastDay: 30}),
		req(multiSites[0], events.NewCampaignSelector(multiSites[0])),
	}
	var ms MultiScratch
	reports := make([]*Report, len(four))
	stats := make([]ReportStats, len(four))
	for _, n := range []int{1, len(four)} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := d.GenerateReportBatch(four[:n], &ms, reports[:n], stats[:n]); err != nil {
				t.Fatal(err)
			}
		})
		for j, st := range stats[:n] {
			if st.Denied || st.TruthTotal != 70 {
				t.Fatalf("request %d: %+v; the fence measures a no-denial visit that selects", j, st)
			}
		}
		if want := float64(2 * n); allocs != want {
			t.Errorf("visit of %d requests: %v allocations, want %v (a *Report and its histogram each)", n, allocs, want)
		}
	}
}

package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/attribution"
	"repro/internal/events"
)

// TestScratchPathMatchesDiagnosticsPath runs the allocate-per-call API and
// the scratch-reusing hot path over identical randomized devices and asserts
// reports and fold stats are bit-identical, with one shared MultiScratch
// carried across every call (the reuse contract under maximal buffer
// staleness).
func TestScratchPathMatchesDiagnosticsPath(t *testing.T) {
	var ms MultiScratch
	reps := make([]*Report, 1)
	sts := make([]ReportStats, 1)
	for seed := int64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := events.NewDatabase()
		nEvents := rng.Intn(40)
		for i := 0; i < nEvents; i++ {
			day := rng.Intn(35)
			db.Record(events.EpochOfDay(day, 7), events.Event{
				ID: events.EventID(i + 1), Kind: events.KindImpression,
				Device: 1, Day: day, Advertiser: nike,
				Campaign: []events.Sym{events.Intern("shoes"), events.Intern("hats")}[rng.Intn(2)],
			})
		}
		epsG := []float64{0, 0.005, 0.02, 1}[rng.Intn(4)]
		var policy LossPolicy = CookieMonsterPolicy{}
		if rng.Intn(2) == 1 {
			policy = ARALikePolicy{}
		}
		// Two devices sharing the database: one serves the reference API,
		// one the scratch API, so budget states evolve identically.
		dRef := NewDevice(1, db, epsG, policy)
		dScr := NewDevice(1, db, epsG, policy)

		for call := 0; call < 12; call++ {
			req := paperRequest(nil)
			req.FirstEpoch = events.Epoch(rng.Intn(3))
			req.LastEpoch = req.FirstEpoch + events.Epoch(rng.Intn(5))
			if rng.Intn(3) == 0 {
				req.Bias = &BiasSpec{Kappa: 10, LastTouch: rng.Intn(2) == 0}
			}

			repRef, diag, err := dRef.GenerateReport(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dScr.GenerateReportBatch([]*Request{req}, &ms, reps, sts); err != nil {
				t.Fatal(err)
			}
			repScr, st := reps[0], sts[0]

			if !slices.Equal(repRef.Histogram, repScr.Histogram) {
				t.Fatalf("seed %d call %d: histogram %v vs %v",
					seed, call, repRef.Histogram, repScr.Histogram)
			}
			if repRef.BiasFlag != repScr.BiasFlag {
				t.Fatalf("seed %d call %d: bias flag %v vs %v",
					seed, call, repRef.BiasFlag, repScr.BiasFlag)
			}
			if st.TruthTotal != diag.TrueHistogram.Total() {
				t.Fatalf("seed %d call %d: truth %v vs %v",
					seed, call, st.TruthTotal, diag.TrueHistogram.Total())
			}
			if st.TotalLoss != diag.TotalLoss() {
				t.Fatalf("seed %d call %d: loss %v vs %v",
					seed, call, st.TotalLoss, diag.TotalLoss())
			}
			if st.Denied != (len(diag.DeniedEpochs) > 0) || st.Biased != diag.Biased {
				t.Fatalf("seed %d call %d: flags %+v vs diag %+v", seed, call, st, diag)
			}
			// The two devices' ledgers must agree exactly after every call.
			for e := req.FirstEpoch; e <= req.LastEpoch; e++ {
				if a, b := dRef.Consumed(nike, e), dScr.Consumed(nike, e); a != b {
					t.Fatalf("seed %d call %d: consumed(%d) %v vs %v", seed, call, e, a, b)
				}
			}
		}
	}
}

// TestDiagnosticsEpochIndexing pins the window-indexed slice layout and its
// epoch-keyed accessors.
func TestDiagnosticsEpochIndexing(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	_, diag, err := d.GenerateReport(paperRequest(nil))
	if err != nil {
		t.Fatal(err)
	}
	if diag.FirstEpoch != 1 || len(diag.PerEpochLoss) != 4 || len(diag.RelevantPerEpoch) != 4 {
		t.Fatalf("window-indexed layout wrong: first=%d lens=%d/%d",
			diag.FirstEpoch, len(diag.PerEpochLoss), len(diag.RelevantPerEpoch))
	}
	if diag.LossAt(1) != diag.PerEpochLoss[0] || diag.RelevantAt(2) != diag.RelevantPerEpoch[1] {
		t.Fatal("accessors disagree with slices")
	}
	// Out-of-window reads are zero, not panics.
	if diag.LossAt(0) != 0 || diag.LossAt(99) != 0 || diag.RelevantAt(-5) != 0 {
		t.Fatal("out-of-window reads nonzero")
	}
}

// TestDeviceLedgerConcurrentRace drives concurrent report generation
// (GenerateReportBatch and GenerateReport), Consumed, ConsumedByQuerier and Ledger against
// the flat ledger, interleaved with the streaming
// service's phase discipline for events.Database.EvictBefore (a mutation
// phase with no concurrent readers). Run under -race.
func TestDeviceLedgerConcurrentRace(t *testing.T) {
	var site = events.Intern("nike.example")
	db := events.NewDatabase()
	record := func(epoch events.Epoch, n int) {
		for i := 0; i < n; i++ {
			db.Record(epoch, events.Event{
				ID: db.NextEventID(), Kind: events.KindImpression,
				Device: events.DeviceID(i % 4), Day: int(epoch) * 7,
				Advertiser: site, Campaign: events.Intern("product-0"),
			})
		}
	}
	for e := events.Epoch(0); e < 6; e++ {
		record(e, 16)
	}
	fleet := NewFleet(4, db, 0.5, CookieMonsterPolicy{})
	req := func(first, last events.Epoch) *Request {
		return &Request{
			Querier:    site.String(),
			FirstEpoch: first, LastEpoch: last,
			Selector:          events.ProductSelector{Advertiser: site, Product: events.Intern("product-0")},
			Function:          attribution.ScalarValue{Value: 1},
			Epsilon:           0.01,
			ReportSensitivity: 1,
			QuerySensitivity:  1,
			PNorm:             1,
		}
	}

	// Day-clock phases: a concurrent read/report phase, then a sequential
	// retention phase (EvictBefore), repeated.
	for phase := 0; phase < 3; phase++ {
		floor := events.Epoch(phase * 2)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var ms MultiScratch
				reps := make([]*Report, 1)
				sts := make([]ReportStats, 1)
				for i := 0; i < 40; i++ {
					dev := fleet.GetOrCreate(events.DeviceID((w + i) % 4))
					switch w % 4 {
					case 0:
						if _, err := dev.GenerateReportBatch([]*Request{req(floor, floor+3)}, &ms, reps, sts); err != nil {
							t.Error(err)
							return
						}
					case 1:
						if _, _, err := dev.GenerateReport(req(floor, floor+3)); err != nil {
							t.Error(err)
							return
						}
					case 2:
						dev.Consumed(site, floor+events.Epoch(i%4))
						dev.ConsumedByQuerier()
					case 3:
						dev.Ledger()
					}
				}
			}(w)
		}
		wg.Wait()

		// Retention phase: single-writer, no concurrent readers — the
		// streaming day-clock discipline for database mutation.
		next := events.Epoch((phase + 1) * 2)
		db.EvictBefore(next)
		record(next+4, 8) // keep future epochs populated
	}

	// Post-run invariant: no slot above capacity.
	fleet.Range(func(d *Device) bool {
		for _, row := range d.Ledger() {
			if row.Consumed > row.Capacity*(1+1e-9) {
				t.Errorf("device %d slot %s/%d over capacity: %v",
					d.ID(), row.Querier, row.Epoch, row.Consumed)
			}
		}
		return true
	})
}

package repro

import (
	"testing"

	"repro/internal/aggregation"
	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/privacy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestEndToEndPipeline drives the full stack — dataset generation, device
// fleet, report generation, aggregation — and checks the released estimates
// are usable (within 3× the calibration target for clean queries).
func TestEndToEndPipeline(t *testing.T) {
	cfg := dataset.DefaultMicroConfig()
	cfg.BatchSize = 200
	ds, err := dataset.Micro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv := ds.Advertisers[0]
	eps := privacy.DefaultCalibration.Epsilon(adv.MaxValue, adv.BatchSize, adv.AvgReportValue)
	run, err := workload.Execute(workload.Config{
		Dataset:  ds,
		System:   workload.CookieMonster,
		EpsilonG: eps * 4,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 20 {
		t.Fatalf("queries = %d", len(run.Results))
	}
	clean := 0
	for _, q := range run.Results {
		if q.DeniedReports == 0 && q.Truth > 0 && q.RMSRE < 0.15 {
			clean++
		}
	}
	if clean < 10 {
		t.Fatalf("only %d/20 queries within tolerance", clean)
	}
}

// TestColludingQueriersAccounting: two queriers exercise the same device;
// each has its own filters (so neither can starve the other), and the joint
// leakage about one epoch is bounded by the Thm. 10 composition of their
// individually-consumed budgets.
func TestColludingQueriersAccounting(t *testing.T) {
	db := events.NewDatabase()
	db.Record(1, events.Event{ID: 1, Kind: events.KindImpression, Device: 1,
		Day: 8, Advertiser: events.Intern("nike.com"), Campaign: events.Intern("shoes")})
	db.Record(1, events.Event{ID: 2, Kind: events.KindImpression, Device: 1,
		Day: 9, Advertiser: events.Intern("adidas.com"), Campaign: events.Intern("track")})
	dev := core.NewDevice(1, db, 1.0, core.CookieMonsterPolicy{})

	query := func(site, campaign string) {
		q := events.Intern(site)
		t.Helper()
		_, _, err := dev.GenerateReport(&core.Request{
			Querier:    q.String(),
			FirstEpoch: 0, LastEpoch: 2,
			Selector:          events.NewCampaignSelector(q, events.Intern(campaign)),
			Function:          attribution.ScalarValue{Value: 10},
			Epsilon:           0.4,
			ReportSensitivity: 10,
			QuerySensitivity:  10,
			PNorm:             1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		query("nike.com", "shoes")
		query("adidas.com", "track")
	}

	nikeSpent := dev.Consumed(events.Intern("nike.com"), 1)
	adidasSpent := dev.Consumed(events.Intern("adidas.com"), 1)
	// Each querier is individually capped at ε^G.
	if nikeSpent > 1.0+1e-9 || adidasSpent > 1.0+1e-9 {
		t.Fatalf("per-querier cap violated: %v / %v", nikeSpent, adidasSpent)
	}
	// The colluding pair's joint guarantee is Thm. 10's general-case bound
	// Σᵢ 2εᵢ over the consumed budgets, never above its worst case at ε^G.
	if joint := 2 * (nikeSpent + adidasSpent); joint > 2*(1+1) {
		t.Fatalf("joint bound %v exceeds worst case", joint)
	}
}

// TestUnlinkabilityAcrossDevices: a user's events split across two devices
// keep fully independent filter tables, and the Thm. 2 arithmetic bounds the
// linkability advantage by the budgets actually spent.
func TestUnlinkabilityAcrossDevices(t *testing.T) {
	db := events.NewDatabase()
	db.Record(0, events.Event{ID: 1, Kind: events.KindImpression, Device: 1,
		Day: 1, Advertiser: events.Intern("nike.com"), Campaign: events.Intern("shoes")})
	db.Record(0, events.Event{ID: 2, Kind: events.KindImpression, Device: 2,
		Day: 2, Advertiser: events.Intern("nike.com"), Campaign: events.Intern("shoes")})
	d1 := core.NewDevice(1, db, 0.5, core.CookieMonsterPolicy{})
	d2 := core.NewDevice(2, db, 0.8, core.CookieMonsterPolicy{})

	req := &core.Request{
		Querier:    "nike.com",
		FirstEpoch: 0, LastEpoch: 0,
		Selector:          events.NewCampaignSelector(events.Intern("nike.com"), events.Intern("shoes")),
		Function:          attribution.ScalarValue{Value: 5},
		Epsilon:           0.2,
		ReportSensitivity: 5,
		QuerySensitivity:  10,
		PNorm:             1,
	}
	if _, _, err := d1.GenerateReport(req); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d2.GenerateReport(req); err != nil {
		t.Fatal(err)
	}
	// Budgets are per device: d2's spend is invisible on d1.
	if d1.Consumed(events.Intern("nike.com"), 0) == 0 || d2.Consumed(events.Intern("nike.com"), 0) == 0 {
		t.Fatal("devices did not consume independently")
	}
	// Thm. 2: 2ε^G_{d₀} + ε^G_{d₁}.
	if bound := 2*d1.Capacity() + d2.Capacity(); bound != 2*0.5+0.8 {
		t.Fatalf("unlinkability bound = %v", bound)
	}
}

// TestBudgetSurvivesRestartEndToEnd: ledger rows restore through the
// workload-facing device API, and the aggregation service still refuses the
// pre-restart report nonces.
func TestBudgetSurvivesRestartEndToEnd(t *testing.T) {
	db := events.NewDatabase()
	db.Record(0, events.Event{ID: 1, Kind: events.KindImpression, Device: 1,
		Day: 1, Advertiser: events.Intern("nike.com"), Campaign: events.Intern("shoes")})
	dev := core.NewDevice(1, db, 0.2, core.CookieMonsterPolicy{})
	req := &core.Request{
		Querier:    "nike.com",
		FirstEpoch: 0, LastEpoch: 0,
		Selector:          events.NewCampaignSelector(events.Intern("nike.com"), events.Intern("shoes")),
		Function:          attribution.ScalarValue{Value: 10},
		Epsilon:           0.15,
		ReportSensitivity: 10,
		QuerySensitivity:  10,
		PNorm:             1,
	}
	rep1, _, err := dev.GenerateReport(req)
	if err != nil {
		t.Fatal(err)
	}
	svc := aggregation.NewService(stats.NewRNG(1))
	if _, err := svc.Execute([]*core.Report{rep1}); err != nil {
		t.Fatal(err)
	}

	restarted := core.NewDevice(1, db, 0.2, core.CookieMonsterPolicy{})
	for _, row := range dev.Ledger() {
		if err := restarted.RestoreBudgetRow(row.Querier, row.Epoch, row.Consumed); err != nil {
			t.Fatal(err)
		}
	}
	// The epoch had 0.15 of 0.2 consumed; a second report must be denied.
	_, diag, err := restarted.GenerateReport(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.DeniedEpochs) != 1 {
		t.Fatalf("restart forgot consumption: denied = %v", diag.DeniedEpochs)
	}
	// Replaying the pre-restart report is still caught.
	if _, err := svc.Execute([]*core.Report{rep1}); err == nil {
		t.Fatal("replay accepted after restart")
	}
}

// TestExperimentDeterminism: the quick harnesses are bit-for-bit
// reproducible run to run.
func TestExperimentDeterminism(t *testing.T) {
	a, err := experiments.Fig7(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Fig7(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range experiments.Fig7Variants {
		if a.AvgBudget[v] != b.AvgBudget[v] {
			t.Fatalf("%v: budgets differ across runs", v)
		}
	}
	ta, tb := a.Tables(), b.Tables()
	for i := range ta {
		if ta[i].Render() != tb[i].Render() {
			t.Fatalf("table %s differs across runs", ta[i].ID)
		}
	}
}

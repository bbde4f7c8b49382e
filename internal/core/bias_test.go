package core

import (
	"math"
	"testing"

	"repro/internal/attribution"
	"repro/internal/events"
)

func TestBiasSurchargeChargedOnAllPassingEpochs(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	bias := &BiasSpec{Kappa: 10, LastTouch: true} // 10% of Δquery=100
	_, diag, err := d.GenerateReport(paperRequest(bias))
	if err != nil {
		t.Fatal(err)
	}
	surcharge := 0.01 * 10 / 100 // ε·κ/Δquery = 0.001
	// Epochs with relevant impressions: 0.007 + 0.001.
	for _, e := range []events.Epoch{1, 2} {
		if got := diag.LossAt(e); math.Abs(got-0.008) > 1e-12 {
			t.Fatalf("epoch %d loss = %v, want 0.008", e, got)
		}
	}
	// Epochs that paid zero before now pay the surcharge (§6.5: "some
	// epochs that originally paid zero budget... now pay for bias
	// counts").
	for _, e := range []events.Epoch{3, 4} {
		if got := diag.LossAt(e); math.Abs(got-surcharge) > 1e-12 {
			t.Fatalf("epoch %d loss = %v, want %v", e, got, surcharge)
		}
	}
}

func TestBiasFlagZeroWhenNothingDenied(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	rep, _, err := d.GenerateReport(paperRequest(&BiasSpec{Kappa: 10, LastTouch: true}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BiasFlag != 0 {
		t.Fatalf("flag = %v, want 0", rep.BiasFlag)
	}
}

func TestBiasFlagGenericFiresOnAnyDenial(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	d.testCharge(nike, 1, 1)
	rep, _, err := d.GenerateReport(paperRequest(&BiasSpec{Kappa: 10, LastTouch: false}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BiasFlag != 10 {
		t.Fatalf("generic flag = %v, want κ=10", rep.BiasFlag)
	}
}

func TestBiasFlagLastTouchSuppressedByLaterImpression(t *testing.T) {
	// Thm. 16: denying e1 cannot bias a last-touch report when e2 (later)
	// still holds a relevant impression.
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	d.testCharge(nike, 1, 1)
	rep, _, err := d.GenerateReport(paperRequest(&BiasSpec{Kappa: 10, LastTouch: true}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BiasFlag != 0 {
		t.Fatalf("last-touch flag = %v, want 0 (I₂ survives later)", rep.BiasFlag)
	}
}

func TestBiasFlagLastTouchFiresWhenNoLaterImpression(t *testing.T) {
	// Deny e2 (the most recent impression's epoch): now the denial can
	// change a last-touch report, so the flag must fire.
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	d.testCharge(nike, 2, 1)
	rep, diag, err := d.GenerateReport(paperRequest(&BiasSpec{Kappa: 10, LastTouch: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.DeniedEpochs) != 1 || diag.DeniedEpochs[0] != 2 {
		t.Fatalf("denied = %v", diag.DeniedEpochs)
	}
	if rep.BiasFlag != 10 {
		t.Fatalf("last-touch flag = %v, want κ=10", rep.BiasFlag)
	}
	// The flag is conservative: here credit shifts from I₂ to I₁ but the
	// scalar slot value is unchanged (70), so the numeric report is not
	// biased — the flagged set is a superset of the altered set
	// (Appendix F, Eq. 50).
	if diag.Biased {
		t.Fatal("slot values identical; numeric report should be unbiased")
	}
	if rep.Histogram[0] != 70 { // I₁ is now the last touch
		t.Fatalf("report = %v", rep.Histogram)
	}
}

func TestBiasFlagNeverExceedsKappa(t *testing.T) {
	// Even with multiple denied epochs the flag is a single indicator.
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	d.testCharge(nike, 1, 1)
	d.testCharge(nike, 2, 1)
	rep, _, err := d.GenerateReport(paperRequest(&BiasSpec{Kappa: 10, LastTouch: false}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BiasFlag != 10 {
		t.Fatalf("flag = %v, want exactly κ", rep.BiasFlag)
	}
}

func TestBiasSurchargeCanExhaustZeroLossEpochs(t *testing.T) {
	// With a tiny capacity, the surcharge itself is denied and the epoch
	// drops its data — the mechanism §6.5 blames for the accuracy cost of
	// bias measurement.
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 0.0005)
	rep, diag, err := d.GenerateReport(paperRequest(&BiasSpec{Kappa: 10, LastTouch: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.DeniedEpochs) == 0 {
		t.Fatal("expected denials under tiny capacity")
	}
	if rep.BiasFlag != 10 {
		t.Fatalf("flag = %v, want κ", rep.BiasFlag)
	}
}

func TestIndividualSensitivityUpperBound(t *testing.T) {
	req := paperRequest(nil)
	if got := individualSensitivityUpperBound(req); got != 70 {
		t.Fatalf("bound = %v, want min(70,100)", got)
	}
}

func TestLedgerAndDashboard(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	if _, _, err := d.GenerateReport(paperRequest(nil)); err != nil {
		t.Fatal(err)
	}
	rows := d.Ledger()
	if len(rows) == 0 {
		t.Fatal("ledger empty after report")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Querier.Compare(rows[i].Querier) > 0 {
			t.Fatal("ledger not sorted by querier")
		}
		if rows[i-1].Querier == rows[i].Querier && rows[i-1].Epoch >= rows[i].Epoch {
			t.Fatal("ledger not sorted by epoch")
		}
	}
	var sawConsumed bool
	for _, r := range rows {
		if r.Consumed > 0 {
			sawConsumed = true
		}
		if f := r.Fraction(); f < 0 || f > 1 {
			t.Fatalf("fraction %v out of range", f)
		}
	}
	if !sawConsumed {
		t.Fatal("no consumption recorded")
	}
	out := RenderDashboard(rows, 20)
	if out == "" {
		t.Fatal("empty dashboard")
	}
	out2 := RenderDashboard(rows, 0) // default width path
	if out2 == "" {
		t.Fatal("default-width dashboard empty")
	}
}

func TestLedgerRowFractionEdgeCases(t *testing.T) {
	if (LedgerRow{Consumed: 1, Capacity: 0}).Fraction() != 1 {
		t.Fatal("zero-capacity consumed fraction should be 1")
	}
	if (LedgerRow{Consumed: 0, Capacity: 0}).Fraction() != 0 {
		t.Fatal("zero-capacity idle fraction should be 0")
	}
	if (LedgerRow{Consumed: 5, Capacity: 2}).Fraction() != 1 {
		t.Fatal("overfull fraction should clamp to 1")
	}
}

func TestBinnedAttributionThroughDevice(t *testing.T) {
	// Campaign-comparison query (§4.1.3): a1 vs a2 histogram.
	db := events.NewDatabase()
	db.Record(0, events.Event{ID: 1, Kind: events.KindImpression, Device: 1, Day: 0, Advertiser: nike, Campaign: events.Intern("a1")})
	db.Record(1, events.Event{ID: 2, Kind: events.KindImpression, Device: 1, Day: 8, Advertiser: nike, Campaign: events.Intern("a2")})
	d := NewDevice(1, db, 10, CookieMonsterPolicy{})
	req := &Request{
		Querier:    nike.String(),
		FirstEpoch: 0, LastEpoch: 1,
		Selector: events.NewCampaignSelector(nike, events.Intern("a1"), events.Intern("a2")),
		Function: attribution.Binned{
			Logic: attribution.EqualCredit{},
			Bins:  map[events.Sym]int{events.Intern("a1"): 0, events.Intern("a2"): 1},
			Dim:   2,
			Value: 10,
		},
		Epsilon:           0.1,
		ReportSensitivity: 20, // 2·Amax for shifting logic, m,k ≥ 2
		QuerySensitivity:  20,
		PNorm:             1,
	}
	rep, _, err := d.GenerateReport(req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Histogram[0] != 5 || rep.Histogram[1] != 5 {
		t.Fatalf("binned report = %v", rep.Histogram)
	}
}

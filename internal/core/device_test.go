package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/attribution"
	"repro/internal/events"
	"repro/internal/privacy"
)

var nike = events.Intern("nike.com")

// paperDevice builds the §3.2 scenario: impressions I₁ in epoch e1 and I₂ in
// epoch e2, nothing in e3, and the conversion C₁ in epoch e4 (7-day epochs).
func paperDevice(t *testing.T, policy LossPolicy, epsG float64) (*Device, *events.Database) {
	t.Helper()
	db := events.NewDatabase()
	db.Record(1, events.Event{
		ID: 1, Kind: events.KindImpression, Device: 7, Day: 7,
		Publisher: events.Intern("nytimes.com"), Advertiser: nike, Campaign: events.Intern("shoes"),
	})
	db.Record(2, events.Event{
		ID: 2, Kind: events.KindImpression, Device: 7, Day: 15,
		Publisher: events.Intern("bbc.com"), Advertiser: nike, Campaign: events.Intern("shoes"),
	})
	db.Record(4, events.Event{
		ID: 3, Kind: events.KindConversion, Device: 7, Day: 29,
		Advertiser: nike, Product: events.Intern("shoes"), Value: 70,
	})
	return NewDevice(7, db, epsG, policy), db
}

func paperRequest(bias *BiasSpec) *Request {
	return &Request{
		Querier:           nike.String(),
		FirstEpoch:        1,
		LastEpoch:         4,
		Selector:          events.NewCampaignSelector(nike, events.Intern("shoes")),
		Function:          attribution.Slots{Logic: attribution.LastTouch{}, MaxImpressions: 2, Value: 70},
		Epsilon:           0.01,
		ReportSensitivity: 70,
		QuerySensitivity:  100,
		PNorm:             1,
		Bias:              bias,
	}
}

func TestPaperExampleExecution(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1.0)
	// Exhaust nike.com's budget slot for epoch 1, as in Fig. 3.
	if out := d.testCharge(nike, 1, 1.0); out != privacy.ChargeOK {
		t.Fatalf("pre-charge rejected: %v", out)
	}

	rep, diag, err := d.GenerateReport(paperRequest(nil))
	if err != nil {
		t.Fatal(err)
	}
	// e1 denied: its I₁ is dropped.
	if len(diag.DeniedEpochs) != 1 || diag.DeniedEpochs[0] != 1 {
		t.Fatalf("denied epochs = %v, want [1]", diag.DeniedEpochs)
	}
	// e2 pays ε' = 0.01·70/100 = 0.007.
	if got := diag.LossAt(2); math.Abs(got-0.007) > 1e-12 {
		t.Fatalf("e2 loss = %v, want 0.007", got)
	}
	// e3 (no relevant impressions) and e4 (conversion only) pay zero.
	if diag.LossAt(3) != 0 || diag.LossAt(4) != 0 {
		t.Fatalf("e3/e4 losses = %v/%v, want 0/0", diag.LossAt(3), diag.LossAt(4))
	}
	// Report assigns the $70 to I₂ and pads the second slot: {(I₂,70),(0,0)}.
	if rep.Histogram[0] != 70 || rep.Histogram[1] != 0 {
		t.Fatalf("report = %v, want [70 0]", rep.Histogram)
	}
	// Consumed budget is recorded only on e2.
	if got := d.Consumed(nike, 2); math.Abs(got-0.007) > 1e-12 {
		t.Fatalf("consumed(e2) = %v", got)
	}
	if d.Consumed(nike, 3) != 0 || d.Consumed(nike, 4) != 0 {
		t.Fatal("zero-loss epochs consumed budget")
	}
	// Under last-touch, denying e1 does not change the numeric report
	// (all value was going to I₂ anyway) — the paper's observation that
	// "some out-of-budget epochs can leave the final report value
	// unchanged" (Appendix F).
	if diag.Biased {
		t.Fatal("denying e1 cannot bias a last-touch report when I₂ survives")
	}
}

func TestDenialOfLaterEpochBiasesBinnedReport(t *testing.T) {
	// With a per-campaign histogram, denying the most recent impression's
	// epoch visibly shifts credit between bins.
	db := events.NewDatabase()
	db.Record(1, events.Event{ID: 1, Kind: events.KindImpression, Device: 7, Day: 7, Advertiser: nike, Campaign: events.Intern("a1")})
	db.Record(2, events.Event{ID: 2, Kind: events.KindImpression, Device: 7, Day: 15, Advertiser: nike, Campaign: events.Intern("a2")})
	d := NewDevice(7, db, 1, CookieMonsterPolicy{})
	d.testCharge(nike, 2, 1) // deny the a2 epoch
	req := &Request{
		Querier:    nike.String(),
		FirstEpoch: 1, LastEpoch: 4,
		Selector: events.NewCampaignSelector(nike, events.Intern("a1"), events.Intern("a2")),
		Function: attribution.Binned{
			Logic: attribution.LastTouch{},
			Bins:  map[events.Sym]int{events.Intern("a1"): 0, events.Intern("a2"): 1},
			Dim:   2,
			Value: 70,
		},
		Epsilon:           0.01,
		ReportSensitivity: 140,
		QuerySensitivity:  200,
		PNorm:             1,
	}
	rep, diag, err := d.GenerateReport(req)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Biased {
		t.Fatal("credit shifted between bins; report must be biased")
	}
	if rep.Histogram[0] != 70 || rep.Histogram[1] != 0 {
		t.Fatalf("report = %v, want credit shifted to a1", rep.Histogram)
	}
	if diag.TrueHistogram[0] != 0 || diag.TrueHistogram[1] != 70 {
		t.Fatalf("truth = %v, want credit on a2", diag.TrueHistogram)
	}
}

func TestPaperExampleWithFullBudget(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1.0)
	rep, diag, err := d.GenerateReport(paperRequest(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Last-touch: all value to I₂ (most recent), I₁ second slot 0.
	if rep.Histogram[0] != 70 || rep.Histogram[1] != 0 {
		t.Fatalf("report = %v", rep.Histogram)
	}
	if diag.Biased {
		t.Fatal("nothing denied, report should be unbiased")
	}
	// Both e1 and e2 hold relevant impressions → both pay 0.007.
	for _, e := range []events.Epoch{1, 2} {
		if got := diag.LossAt(e); math.Abs(got-0.007) > 1e-12 {
			t.Fatalf("epoch %d loss = %v", e, got)
		}
	}
}

func TestNullReportWhenEverythingDenied(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 0)
	rep, diag, err := d.GenerateReport(paperRequest(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Histogram) != 2 || !rep.Histogram.IsZero() {
		t.Fatalf("null report shape = %v, want zero dim-2", rep.Histogram)
	}
	if !diag.Biased {
		t.Fatal("null report with real impressions must be biased")
	}
	// Fixed shape: indistinguishable from a real report's shape.
	rep2, _, _ := d.GenerateReport(paperRequest(nil))
	if len(rep2.Histogram) != len(rep.Histogram) {
		t.Fatal("report shape varies with budget state")
	}
}

func TestARALikeChargesEveryWindowEpoch(t *testing.T) {
	d, _ := paperDevice(t, ARALikePolicy{}, 1.0)
	_, diag, err := d.GenerateReport(paperRequest(nil))
	if err != nil {
		t.Fatal(err)
	}
	// All four window epochs pay the full ε, relevant data or not.
	for _, e := range []events.Epoch{1, 2, 3, 4} {
		if got := diag.LossAt(e); got != 0.01 {
			t.Fatalf("ARA epoch %d loss = %v, want 0.01", e, got)
		}
	}
}

func TestCookieMonsterNeverExceedsARA(t *testing.T) {
	// Pointwise dominance: for the same request, CM charges each epoch at
	// most what ARA-like charges.
	f := func(hasRelevant bool, windowLen uint8, rawVal float64) bool {
		val := math.Mod(math.Abs(rawVal), 100) + 1
		k := int(windowLen%5) + 1
		req := &Request{
			Querier:           nike.String(),
			FirstEpoch:        0,
			LastEpoch:         events.Epoch(k - 1),
			Selector:          events.NewCampaignSelector(nike),
			Function:          attribution.ScalarValue{Value: val},
			Epsilon:           0.5,
			ReportSensitivity: val,
			QuerySensitivity:  100 + val,
			PNorm:             1,
		}
		var relevant []events.Event
		if hasRelevant {
			relevant = []events.Event{{Kind: events.KindImpression, Advertiser: nike}}
		}
		cm := CookieMonsterPolicy{}.EpochLoss(relevant, req)
		ara := ARALikePolicy{}.EpochLoss(relevant, req)
		return cm <= ara*(1+1e-9) && cm >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleEpochUsesOutputNorm(t *testing.T) {
	// The delay example of §4.3: if the single epoch's attribution output
	// has norm v < Δreport, only ε·v/Δquery is charged.
	db := events.NewDatabase()
	db.Record(0, events.Event{
		ID: 1, Kind: events.KindImpression, Device: 1, Day: 6,
		Advertiser: nike, Campaign: events.Intern("shoes"),
	})
	d := NewDevice(1, db, 10, CookieMonsterPolicy{})
	req := &Request{
		Querier:    nike.String(),
		FirstEpoch: 0, LastEpoch: 0,
		Selector: events.NewCampaignSelector(nike, events.Intern("shoes")),
		// Attribution output = 1 day of delay out of a 7-day cap.
		Function:          attribution.ScalarValue{Value: 1},
		Epsilon:           0.7,
		ReportSensitivity: 7,
		QuerySensitivity:  7,
		PNorm:             1,
	}
	_, diag, err := d.GenerateReport(req)
	if err != nil {
		t.Fatal(err)
	}
	// Individual sensitivity 1, query sensitivity 7 → ε/7 = 0.1.
	if got := diag.LossAt(0); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("single-epoch loss = %v, want 0.1", got)
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	base := paperRequest(nil)
	mutations := []func(*Request){
		func(r *Request) { r.Querier = "" },
		func(r *Request) { r.FirstEpoch, r.LastEpoch = 4, 1 },
		func(r *Request) { r.Selector = nil },
		func(r *Request) { r.Function = nil },
		func(r *Request) { r.Epsilon = 0 },
		func(r *Request) { r.Epsilon = -1 },
		func(r *Request) { r.ReportSensitivity = -1 },
		func(r *Request) { r.QuerySensitivity = 0 },
		func(r *Request) { r.ReportSensitivity = 200 }, // exceeds query sens
		func(r *Request) { r.PNorm = 3 },
		func(r *Request) { r.Bias = &BiasSpec{Kappa: 0} },
	}
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	for i, mut := range mutations {
		req := *base
		mut(&req)
		if _, _, err := d.GenerateReport(&req); err == nil {
			t.Fatalf("mutation %d: bad request accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base request invalid: %v", err)
	}
}

func TestNoncesUnique(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 100)
	seen := make(map[Nonce]bool)
	for i := 0; i < 50; i++ {
		rep, _, err := d.GenerateReport(paperRequest(nil))
		if err != nil {
			t.Fatal(err)
		}
		if seen[rep.Nonce] {
			t.Fatalf("duplicate nonce %d", rep.Nonce)
		}
		seen[rep.Nonce] = true
	}
}

func TestBudgetIsolationAcrossQueriers(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	// Exhaust nike's budget on epoch 2.
	d.testCharge(nike, 2, 1)
	// A different querier still has a full budget.
	req := paperRequest(nil)
	req.Querier = "criteo.com"
	req.Selector = events.NewCampaignSelector(nike, events.Intern("shoes"))
	_, diag, err := d.GenerateReport(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.DeniedEpochs) != 0 {
		t.Fatalf("other querier denied: %v", diag.DeniedEpochs)
	}
}

func TestConcurrentReportsNeverOverConsume(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 0.02) // fits two e2 losses of 0.007
	var wg sync.WaitGroup
	const n = 32
	diags := make([]*Diagnostics, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, diag, err := d.GenerateReport(paperRequest(nil))
			if err != nil {
				t.Error(err)
				return
			}
			diags[i] = diag
		}(i)
	}
	wg.Wait()
	total := 0.0
	for _, diag := range diags {
		total += diag.LossAt(2)
	}
	if total > 0.02*(1+1e-9) {
		t.Fatalf("epoch 2 over-consumed: %v > 0.02", total)
	}
	if got := d.Consumed(nike, 2); math.Abs(got-total) > 1e-9 {
		t.Fatalf("ledger mismatch: %v vs %v", got, total)
	}
}

func TestTotalLossAndTruth(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	_, diag, err := d.GenerateReport(paperRequest(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := diag.TotalLoss(); math.Abs(got-0.014) > 1e-12 {
		t.Fatalf("total loss = %v, want 0.014 (two epochs × 0.007)", got)
	}
	if diag.TrueHistogram[0] != 70 {
		t.Fatalf("truth = %v", diag.TrueHistogram)
	}
}

func TestNewDevicePanics(t *testing.T) {
	db := events.NewDatabase()
	cases := []func(){
		func() { NewDevice(1, nil, 1, CookieMonsterPolicy{}) },
		func() { NewDevice(1, db, -1, CookieMonsterPolicy{}) },
		func() { NewDevice(1, db, 1, nil) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestPolicyNames(t *testing.T) {
	if (CookieMonsterPolicy{}).Name() != "cookie-monster" || (ARALikePolicy{}).Name() != "ara-like" {
		t.Fatal("policy names wrong")
	}
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1)
	if d.Policy().Name() != "cookie-monster" || d.Capacity() != 1 || d.ID() != 7 {
		t.Fatal("device accessors wrong")
	}
}

func TestAblationPolicyLadder(t *testing.T) {
	// The two partial optimizations are not pointwise comparable (one
	// saves on empty epochs, the other on all epochs), but every rung is
	// bracketed: it never under-charges the full Cookie Monster policy
	// (soundness) and never over-charges ARA-like (it is an optimization).
	req := paperRequest(nil)
	relevantSets := [][]events.Event{
		nil,
		{{Kind: events.KindImpression, Advertiser: nike, Campaign: events.Intern("shoes")}},
	}
	for _, relevant := range relevantSets {
		cm := CookieMonsterPolicy{}.EpochLoss(relevant, req)
		ara := ARALikePolicy{}.EpochLoss(relevant, req)
		for _, p := range AblationPolicies {
			loss := p.EpochLoss(relevant, req)
			if loss < 0 {
				t.Fatalf("%s: negative loss", p.Name())
			}
			if loss < cm-1e-12 {
				t.Fatalf("%s under-charges: %v < CM %v", p.Name(), loss, cm)
			}
			if loss > ara+1e-12 {
				t.Fatalf("%s over-charges: %v > ARA %v", p.Name(), loss, ara)
			}
		}
	}
}

func TestSingleEpochAwarePolicy(t *testing.T) {
	p := SingleEpochAwarePolicy{}
	req := paperRequest(nil)
	// Multi-epoch window with relevant events: full ε.
	relevant := []events.Event{{Kind: events.KindImpression, Advertiser: nike, Campaign: events.Intern("shoes")}}
	if got := p.EpochLoss(relevant, req); got != req.Epsilon {
		t.Fatalf("multi-epoch loss = %v", got)
	}
	// Empty: zero.
	if p.EpochLoss(nil, req) != 0 {
		t.Fatal("empty epoch charged")
	}
	// Single-epoch: output-norm scaled.
	single := *req
	single.FirstEpoch, single.LastEpoch = 2, 2
	got := p.EpochLoss(relevant, &single)
	want := req.Epsilon * 70 / 100
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("single-epoch loss = %v, want %v", got, want)
	}
}

func TestPartialPolicyNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range AblationPolicies {
		if names[p.Name()] {
			t.Fatalf("duplicate policy name %s", p.Name())
		}
		names[p.Name()] = true
	}
}

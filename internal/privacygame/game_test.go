package privacygame

import (
	"fmt"
	"testing"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/stats"
)

var nike = events.Intern("nike.com")

func impression(id events.EventID, day int, campaign string) events.Event {
	return events.Event{
		ID: id, Kind: events.KindImpression, Day: day,
		Publisher: events.Intern("pub.example"), Advertiser: nike, Campaign: events.Intern(campaign),
	}
}

// request builds a random-but-valid attribution request whose declared
// report sensitivity follows Thm. 18 (2·Amax for shifting logics over
// multi-epoch windows), as the querier protocol requires.
func request(rng *stats.RNG, firstEpoch, lastEpoch events.Epoch) *core.Request {
	value := float64(1 + rng.Intn(50))
	m := 1 + rng.Intn(3)
	k := int(lastEpoch-firstEpoch) + 1
	logic := attribution.LastTouch{}
	reportSens := attribution.ReportGlobalSensitivity(logic, value, m, k)
	querySens := reportSens * float64(1+rng.Intn(3))
	return &core.Request{
		Querier:    nike.String(),
		FirstEpoch: firstEpoch,
		LastEpoch:  lastEpoch,
		Selector:   events.NewCampaignSelector(nike, events.Intern("c0"), events.Intern("c1")),
		Function: attribution.Slots{
			Logic:          logic,
			MaxImpressions: m,
			Value:          value,
		},
		Epsilon:           0.05 + rng.Float64()*0.5,
		ReportSensitivity: reportSens,
		QuerySensitivity:  querySens,
		PNorm:             1,
	}
}

// TestRealizedLossNeverExceedsBudget is the executable Thm. 1/Thm. 5: a
// randomized adaptive adversary fires hundreds of queries at neighboring
// worlds; the analytically-computed realized privacy loss must stay within
// (1) the loss the filter actually charged, and (2) the capacity ε^G.
func TestRealizedLossNeverExceedsBudget(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := stats.Stream(uint64(trial), "privacy-game")
			const epsG = 1.0
			challengeEpoch := events.Epoch(rng.Intn(4))

			// Private challenge events: relevant impressions the
			// adversary wants to detect.
			var challenge []events.Event
			for i := 0; i <= rng.Intn(4); i++ {
				challenge = append(challenge,
					impression(events.EventID(1000+i), int(challengeEpoch)*7+rng.Intn(7),
						fmt.Sprintf("c%d", rng.Intn(2))))
			}
			g := New(1, challengeEpoch, epsG, challenge)

			// Shared context on *other* epochs (the neighboring
			// relation holds everything but the challenge record
			// fixed).
			for i := 0; i < 10; i++ {
				e := events.Epoch(rng.Intn(6))
				if e == challengeEpoch {
					continue
				}
				g.AddShared(e, impression(events.EventID(2000+i), int(e)*7+rng.Intn(7),
					fmt.Sprintf("c%d", rng.Intn(2))))
			}

			// Adaptive query stream.
			for q := 0; q < 200; q++ {
				first := events.Epoch(rng.Intn(6))
				last := first + events.Epoch(rng.Intn(4))
				req := request(rng, first, last)
				perQuery, err := g.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				if perQuery < 0 {
					t.Fatalf("negative realized loss %v", perQuery)
				}
			}

			realized := g.RealizedLoss()
			charged := g.ChargedLoss(nike)
			if realized > charged*(1+1e-9)+1e-12 {
				t.Fatalf("realized loss %v exceeds charged %v", realized, charged)
			}
			if realized > epsG*(1+1e-9) {
				t.Fatalf("realized loss %v exceeds capacity %v", realized, epsG)
			}
			if charged > epsG*(1+1e-9) {
				t.Fatalf("filter over-charged: %v > %v", charged, epsG)
			}
		})
	}
}

// TestGameDetectsUnderDeclaredSensitivity documents why the querier protocol
// must declare the Thm. 18 report sensitivity: with a campaign-binned
// attribution and an under-declared Δreport (the value cap instead of twice
// it), removing an epoch can shift the full value between bins, and the
// realized loss overshoots what the filter charged.
func TestGameDetectsUnderDeclaredSensitivity(t *testing.T) {
	// Challenge epoch holds the most recent impression (campaign c1);
	// a shared earlier epoch holds a c0 impression.
	challenge := []events.Event{impression(1, 7, "c1")}
	g := New(1, 1, 10, challenge)
	g.AddShared(0, impression(2, 0, "c0"))

	value := 10.0
	req := &core.Request{
		Querier:    nike.String(),
		FirstEpoch: 0, LastEpoch: 1,
		Selector: events.NewCampaignSelector(nike, events.Intern("c0"), events.Intern("c1")),
		Function: attribution.Binned{
			Logic: attribution.LastTouch{},
			Bins:  map[events.Sym]int{events.Intern("c0"): 0, events.Intern("c1"): 1},
			Dim:   2,
			Value: value,
		},
		Epsilon:           1,
		ReportSensitivity: value, // under-declared: Thm. 18 says 2·value
		QuerySensitivity:  2 * value,
		PNorm:             1,
	}
	loss, err := g.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	charged := g.ChargedLoss(nike)
	// The full value moves from bin c1 (world 1's last touch) to bin c0:
	// L1 diff = 2·value, but the filter only charged ε·value/Δquery.
	if !(loss > charged) {
		t.Fatalf("under-declaration not detected: realized %v, charged %v", loss, charged)
	}
	// Declaring the correct Thm. 18 sensitivity restores the invariant.
	g2 := New(1, 1, 10, challenge)
	g2.AddShared(0, impression(2, 0, "c0"))
	req2 := *req
	req2.ReportSensitivity = 2 * value
	loss2, err := g2.Query(&req2)
	if err != nil {
		t.Fatal(err)
	}
	if loss2 > g2.ChargedLoss(nike)*(1+1e-9) {
		t.Fatalf("correct declaration still violates: realized %v, charged %v",
			loss2, g2.ChargedLoss(nike))
	}
}

// TestExhaustionClosesTheChannel: once the challenge epoch's filter halts,
// further queries reveal nothing (realized loss stops growing) — the
// mechanism degrades to the world-0 behaviour instead of leaking.
func TestExhaustionClosesTheChannel(t *testing.T) {
	challenge := []events.Event{impression(1, 7, "c0")}
	g := New(1, 1, 0.3, challenge) // tiny capacity

	req := func() *core.Request {
		return &core.Request{
			Querier:    nike.String(),
			FirstEpoch: 0, LastEpoch: 2,
			Selector:          events.NewCampaignSelector(nike, events.Intern("c0")),
			Function:          attribution.ScalarValue{Value: 5},
			Epsilon:           0.2,
			ReportSensitivity: 5,
			QuerySensitivity:  10,
			PNorm:             1,
		}
	}
	var afterExhaustion float64
	for q := 0; q < 20; q++ {
		loss, err := g.Query(req())
		if err != nil {
			t.Fatal(err)
		}
		if q >= 10 {
			afterExhaustion += loss
		}
	}
	if afterExhaustion != 0 {
		t.Fatalf("queries after exhaustion leaked %v", afterExhaustion)
	}
	if g.RealizedLoss() > 0.3*(1+1e-9) {
		t.Fatalf("total realized %v exceeds capacity", g.RealizedLoss())
	}
}

// TestIrrelevantChallengeLeaksNothing: when no query's selector matches the
// challenge events, both worlds behave identically — the zero-loss case.
func TestIrrelevantChallengeLeaksNothing(t *testing.T) {
	challenge := []events.Event{impression(1, 7, "c9")} // never selected
	g := New(1, 1, 1, challenge)
	rng := stats.NewRNG(5)
	for q := 0; q < 50; q++ {
		first := events.Epoch(rng.Intn(3))
		if _, err := g.Query(request(rng, first, first+2)); err != nil {
			t.Fatal(err)
		}
	}
	if g.RealizedLoss() != 0 {
		t.Fatalf("irrelevant record leaked %v", g.RealizedLoss())
	}
	if g.ChargedLoss(nike) != 0 {
		t.Fatalf("irrelevant record was charged %v", g.ChargedLoss(nike))
	}
	if g.Queries() != 50 {
		t.Fatalf("queries = %d", g.Queries())
	}
}

// Package privacygame is test-only: it makes the paper's privacy proofs
// executable. It runs the inner privacy game of Appendix C/D (Alg. 2) — the
// same adaptive query stream against two neighboring databases that differ
// in one device-epoch record — and accounts the *realized* privacy loss
// analytically.
//
// For the Laplace mechanism, the log-likelihood ratio of any released query
// answer between the two worlds is at most ‖Σρ_r(D⁰) − Σρ_r(D¹)‖₁ / b
// (Eq. 8–9 of the proof of Thm. 5), so the game's total realized loss is
//
//	Σ_k ‖A_k(D⁰) − A_k(D¹)‖₁ / b_k ,
//
// which Thm. 5 bounds by the opt-out record's capacity ε^G_x. The game
// computes both sides exactly — no sampling, no noise — turning the proof's
// telescoping argument into an assertion the test suite can check against a
// randomized adversary.
package privacygame

import (
	"fmt"
	"testing"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/privacy"
	"repro/internal/stats"
)

// World identifies the two sides of the neighboring relation.
type World int

const (
	// WithoutRecord is the world where the challenge record's private
	// events are absent (replaced by ∅, the replace-with-default side).
	WithoutRecord World = iota
	// WithRecord is the world containing the full record.
	WithRecord
)

// Game runs one privacy game for a single challenge device-epoch. The
// adversary controls the device's other events and the query stream; the
// game maintains one engine per world and accumulates realized loss.
type Game struct {
	device events.DeviceID
	epoch  events.Epoch

	dbs     [2]*events.Database
	engines [2]*core.Device

	realized float64 // Σ ‖ρ⁰−ρ¹‖₁/b over all queries
	queries  int
}

// New builds a game for device d and challenge epoch e with per-epoch
// capacity epsG. challenge holds the private events present only in
// WithRecord; shared events (on any epoch, including e) can be added to both
// worlds with AddShared.
func New(d events.DeviceID, e events.Epoch, epsG float64, challenge []events.Event) *Game {
	g := &Game{device: d, epoch: e}
	for w := range g.dbs {
		g.dbs[w] = events.NewDatabase()
	}
	for _, ev := range challenge {
		ev.Device = d
		g.dbs[WithRecord].Record(e, ev)
	}
	for w := range g.engines {
		g.engines[w] = core.NewDevice(d, g.dbs[w], epsG, core.CookieMonsterPolicy{})
	}
	return g
}

// AddShared records an event in both worlds (the adversary-chosen context
// that the neighboring relation holds fixed).
func (g *Game) AddShared(epoch events.Epoch, ev events.Event) {
	ev.Device = g.device
	for w := range g.dbs {
		g.dbs[w].Record(epoch, ev)
	}
}

// Query submits one attribution request to both worlds and accumulates the
// realized privacy loss of releasing the (noisy) report under the Laplace
// mechanism with scale Δquery/ε. It returns the per-query realized loss.
func (g *Game) Query(req *core.Request) (float64, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	var hists [2]attribution.Histogram
	for w := range g.engines {
		rep, _, err := g.engines[w].GenerateReport(req)
		if err != nil {
			return 0, fmt.Errorf("world %d: %w", w, err)
		}
		hists[w] = rep.Histogram
	}
	b := privacy.Scale(req.QuerySensitivity, req.Epsilon)
	diff := 0.0
	for i := range hists[0] {
		d := hists[0][i] - hists[1][i]
		if d < 0 {
			d = -d
		}
		diff += d
	}
	loss := diff / b
	g.realized += loss
	g.queries++
	return loss, nil
}

// RealizedLoss returns the total realized privacy loss Σ‖ρ⁰−ρ¹‖₁/b so far.
func (g *Game) RealizedLoss() float64 { return g.realized }

// Queries returns the number of queries submitted.
func (g *Game) Queries() int { return g.queries }

// ChargedLoss returns the budget the WithRecord world actually consumed from
// the challenge epoch — the quantity the filter bounds by ε^G. Thm. 5's
// telescoping argument shows RealizedLoss ≤ ChargedLoss per query, hence
// overall.
func (g *Game) ChargedLoss(querier events.Site) float64 {
	return g.engines[WithRecord].Consumed(querier, g.epoch)
}

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
	reportSens := value // Thm. 18: last-touch shifts credit, so 2·Amax when m, k ≥ 2
	if m >= 2 && k >= 2 {
		reportSens = 2 * value
	}
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

package privacygame

import (
	"fmt"
	"testing"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/stats"
)

func TestUnlinkabilityBoundHolds(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := stats.Stream(uint64(trial), "unlink-game")
			const capD0, capD1 = 0.6, 0.4

			// F₀: a handful of relevant impressions at one epoch;
			// roughly half move to d₁ in World B.
			var f0 []events.Event
			for i := 0; i <= rng.Intn(5); i++ {
				f0 = append(f0, impression(events.EventID(100+i), 7+rng.Intn(7),
					fmt.Sprintf("c%d", rng.Intn(2))))
			}
			g := NewUnlinkability(1, 2, 1, f0,
				func(ev events.Event) bool { return ev.ID%2 == 0 },
				capD0, capD1)

			for q := 0; q < 150; q++ {
				first := events.Epoch(rng.Intn(2))
				last := first + events.Epoch(rng.Intn(3))
				if _, err := g.Query(request(rng, first, last)); err != nil {
					t.Fatal(err)
				}
			}

			bound := g.Bound(1, 2)
			if want := 2*capD0 + capD1; bound != want {
				t.Fatalf("bound = %v, want %v", bound, want)
			}
			if g.RealizedLoss() > bound*(1+1e-9) {
				t.Fatalf("realized loss %v exceeds Thm. 2 bound %v",
					g.RealizedLoss(), bound)
			}
		})
	}
}

func TestUnlinkabilityIdenticalSplitLeaksNothing(t *testing.T) {
	// If no events move (F₁ = ∅), the worlds are identical.
	f0 := []events.Event{impression(1, 7, "c0"), impression(2, 8, "c0")}
	g := NewUnlinkability(1, 2, 1, f0,
		func(events.Event) bool { return false }, 1, 1)
	rng := stats.NewRNG(3)
	for q := 0; q < 40; q++ {
		if _, err := g.Query(request(rng, 0, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if g.RealizedLoss() != 0 {
		t.Fatalf("identical worlds leaked %v", g.RealizedLoss())
	}
}

func TestUnlinkabilityInvalidRequest(t *testing.T) {
	g := NewUnlinkability(1, 2, 0, nil, func(events.Event) bool { return true }, 1, 1)
	if _, err := g.Query(&core.Request{}); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestUnlinkabilityScalarQueriesAreBudgetLimited(t *testing.T) {
	// Concrete linkage attempt: the querier counts relevant impressions
	// per report. Splitting two impressions across devices turns one
	// device-report of value 2 into two of value 1 each — the summed
	// query output is identical, so scalar sum queries cannot link at
	// all; only the budget-bounded per-device structure could.
	f0 := []events.Event{impression(1, 7, "c0"), impression(2, 8, "c0")}
	g := NewUnlinkability(1, 2, 1, f0,
		func(ev events.Event) bool { return ev.ID == 2 }, 1, 1)
	req := &core.Request{
		Querier:    nike.String(),
		FirstEpoch: 0, LastEpoch: 2,
		Selector:          events.NewCampaignSelector(nike, events.Intern("c0")),
		Function:          attribution.ScalarValue{Value: 1},
		Epsilon:           0.2,
		ReportSensitivity: 1,
		QuerySensitivity:  2,
		PNorm:             1,
	}
	loss, err := g.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	// World A: one device reports 1 (ScalarValue caps at the value);
	// World B: both devices report 1 each → sum 2. The 1-unit gap is the
	// distinguishing signal, costed at diff/b = 1/(2/0.2) = 0.1.
	if loss <= 0 {
		t.Fatal("split should be distinguishable through count queries")
	}
	if g.RealizedLoss() > g.Bound(1, 2) {
		t.Fatal("bound violated")
	}
}

package privacygame

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/privacy"
	"repro/internal/stats"
)

// UnlinkabilityGame is the executable Thm. 2 (Def. 1's game): the adversary
// tries to distinguish World A — events F₀ all on device d₀ — from World B —
// F₁ ⊂ F₀ on device d₁ and F₀∖F₁ on d₀ — at a single epoch. Both worlds run
// the full mechanism; the realized loss of every released answer is bounded
// analytically, and Thm. 2 promises the total stays below
// 2ε^G_{d₀} + ε^G_{d₁}.
type UnlinkabilityGame struct {
	epoch events.Epoch

	dbs     [2]*events.Database // A = single device, B = split
	devices [2][]*core.Device   // each world's d₀ and d₁, in ascending ID order

	capacities map[events.DeviceID]float64
	realized   float64
}

// NewUnlinkability builds the game: all of f0 lands on d0 in World A; in
// World B the events selected by onD1 move to d1. Capacities are per device
// (ε^G_{d}).
func NewUnlinkability(d0, d1 events.DeviceID, epoch events.Epoch, f0 []events.Event,
	onD1 func(events.Event) bool, capD0, capD1 float64) *UnlinkabilityGame {
	g := &UnlinkabilityGame{
		epoch:      epoch,
		capacities: map[events.DeviceID]float64{d0: capD0, d1: capD1},
	}
	for w := range g.dbs {
		g.dbs[w] = events.NewDatabase()
	}
	for _, ev := range f0 {
		a := ev
		a.Device = d0
		g.dbs[0].Record(epoch, a)
		b := ev
		if onD1(ev) {
			b.Device = d1
		} else {
			b.Device = d0
		}
		g.dbs[1].Record(epoch, b)
	}
	for w := range g.devices {
		for _, dev := range slices.Compact([]events.DeviceID{min(d0, d1), max(d0, d1)}) {
			g.devices[w] = append(g.devices[w], core.NewDevice(dev, g.dbs[w], g.capacities[dev], core.CookieMonsterPolicy{}))
		}
	}
	return g
}

// Query runs one attribution request against *both devices in both worlds*
// (the querier cannot tell which device generated which report, so it sums
// them) and accumulates the realized loss of the released sum.
func (g *UnlinkabilityGame) Query(req *core.Request) (float64, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	var sums [2]attribution.Histogram
	for w, devs := range g.devices {
		sum := attribution.NewHistogram(req.Function.OutputDim())
		for _, dev := range devs {
			rep, _, err := dev.GenerateReport(req)
			if err != nil {
				return 0, err
			}
			sum.Add(rep.Histogram)
		}
		sums[w] = sum
	}
	b := privacy.Scale(req.QuerySensitivity, req.Epsilon)
	diff := 0.0
	for i := range sums[0] {
		d := sums[0][i] - sums[1][i]
		if d < 0 {
			d = -d
		}
		diff += d
	}
	loss := diff / b
	g.realized += loss
	return loss, nil
}

// RealizedLoss returns the accumulated distinguishing loss.
func (g *UnlinkabilityGame) RealizedLoss() float64 { return g.realized }

// Bound returns the Thm. 2 guarantee 2ε^G_{d₀} + ε^G_{d₁} for the game's
// device pair, where d₀ is the device holding F₀ in World A.
func (g *UnlinkabilityGame) Bound(d0, d1 events.DeviceID) float64 {
	return 2*g.capacities[d0] + g.capacities[d1]
}

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

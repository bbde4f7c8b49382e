package privacygame

import (
	"slices"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/privacy"
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
	return privacy.UnlinkabilityBound(g.capacities[d0], g.capacities[d1])
}
